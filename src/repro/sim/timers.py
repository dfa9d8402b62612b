"""Cancellable one-shot and periodic timers built on the event engine.

These mirror the timers used in the paper's pseudo-code:
``GossipTimer(gossipPeriod)``, ``AggregationTimer(aggPeriod)`` and
``RetTimer(retPeriod, ...)`` all map onto :class:`PeriodicTimer` or
:class:`OneShotTimer`.

Timers are ordinary entries in the engine's event heap, so they fire in
exactly (deadline, arming order), ties included.  Fire-and-forget
deadlines that are never cancelled skip the handle allocation: the
router queues each datagram's arrival as a ``(time, seq, deliver,
envelope)`` entry itself, and waits armed in due order — retransmission
expiries, crash detections — ride a ``Simulator.lane``.  The classes here keep handles because they support
``cancel``/``stop``.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from typing import Any, Callable, Optional

from repro.sim.engine import EventHandle, SimulationError, Simulator


class OneShotTimer:
    """Fires a callback once after ``delay`` seconds; can be cancelled or restarted."""

    __slots__ = ("_sim", "_callback", "_handle")

    def __init__(self, sim: Simulator, callback: Callable[[], Any]):
        self._sim = sim
        self._callback = callback
        self._handle: Optional[EventHandle] = None

    def start(self, delay: float) -> None:
        """Arm the timer.  Restarting an armed timer reschedules it."""
        self.cancel()
        self._handle = self._sim.schedule(delay, self._fire)

    def cancel(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def armed(self) -> bool:
        return self._handle is not None and self._handle.pending

    def _fire(self) -> None:
        self._handle = None
        self._callback()


class PeriodicTimer:
    """Fires a callback every ``period`` seconds until stopped.

    The first tick fires ``phase`` seconds after :meth:`start` (defaulting
    to one full period).  Gossip nodes start with a random phase in
    ``[0, period)`` so that rounds are not system-synchronized — pass that
    phase explicitly to keep determinism in the caller's RNG stream.

    From :meth:`start` to :meth:`stop` the timer holds one
    :class:`~repro.sim.engine.EventHandle`: each tick re-arms the handle
    that just fired with the tick method, bound once, so a tick allocates
    neither.  The tick queues the handle itself: it takes the next
    ``seq``, restores the handle's callback and pushes the heap entry.
    """

    __slots__ = ("_sim", "_callback", "_period", "_handle", "_on_tick",
                 "ticks")

    def __init__(self, sim: Simulator, period: float, callback: Callable[[], Any]):
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period!r}")
        self._sim = sim
        self._period = period
        self._callback = callback
        self._handle: Optional[EventHandle] = None
        self._on_tick = self._tick
        self.ticks = 0

    @property
    def period(self) -> float:
        return self._period

    @property
    def running(self) -> bool:
        return self._handle is not None

    def start(self, phase: Optional[float] = None) -> None:
        if self._handle is not None:
            raise SimulationError("timer already running")
        delay = self._period if phase is None else phase
        self._handle = self._sim.schedule(delay, self._on_tick)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _tick(self) -> None:
        # Re-arm before invoking the callback so the callback may call
        # stop() to terminate the cycle.
        sim = self._sim
        seq = sim._seq + 1
        sim._seq = seq
        handle = self._handle
        handle.callback = self._on_tick
        _heappush(sim._heap, (sim._now + self._period, seq, handle, None))
        self.ticks += 1
        self._callback()
