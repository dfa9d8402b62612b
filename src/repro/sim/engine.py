"""Deterministic discrete-event simulator core.

The :class:`Simulator` keeps a *bucketed calendar queue*: events sharing
one exact timestamp live in a single FIFO bucket, and a small binary heap
orders the distinct timestamps.  Scheduling into an existing bucket is a
dict lookup plus a list append (no heap sift), which makes the dominant
workloads — synchronized gossip periods, retransmission deadlines, batched
datagram deliveries — much cheaper than a per-event binary heap while
keeping the exact same total order: (time, scheduling order).

Two scheduling APIs share the queue:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return a
  cancellable :class:`EventHandle` (the classic API);
* :meth:`Simulator.post_at` is the fire-and-forget fast path: it enqueues
  a bare callable with no handle allocation.  The network's datagram
  delivery path uses it — deliveries are never cancelled, so paying for a
  handle per datagram was pure overhead.

Cancellation is lazy (the handle is marked dead and skipped when its
bucket drains), keeping both operations O(1) amortized.  The number of
live events is tracked by counters, so :attr:`Simulator.pending_count`
is O(1) instead of a heap scan.
"""

from __future__ import annotations

import gc
import heapq
from heapq import heappush as _heappush
from math import inf
from typing import Any, Callable, Dict, List, Optional


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (e.g. scheduling in the past)."""


class EventHandle:
    """A cancellable reference to one scheduled event.

    ``callback`` doubles as the liveness marker: it is set to ``None``
    when the event fires or is cancelled, which gives the run loop a
    single cheap check per event.
    """

    __slots__ = ("callback", "_sim", "_cancelled")

    def __init__(self, sim: "Simulator", callback: Callable[[], Any]):
        self._sim = sim
        self.callback = callback

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when its time comes.

        Idempotent, and a no-op (beyond setting the flag) after the event
        has already fired — cancel-after-fire must not corrupt the
        simulator's live-event accounting.
        """
        if self.callback is not None:
            self.callback = None
            self._sim._cancels += 1
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        """True once cancel() has been called.

        Backed by a lazily-initialized slot: schedule() runs once per
        event and skips the ``False`` store, cancel() is rare.
        """
        try:
            return self._cancelled
        except AttributeError:
            return False

    @property
    def pending(self) -> bool:
        return self.callback is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.cancelled:
            state = "cancelled"
        elif self.callback is None:
            state = "fired"
        else:
            state = "pending"
        return f"EventHandle({state})"


#: Bypass EventHandle.__init__ on the scheduling hot path: a bare
#: object.__new__ plus inline slot stores measures ~40% cheaper than a
#: Python-level __init__ call, and schedule() runs once per event.
_new_handle = object.__new__


class Simulator:
    """A single-threaded discrete-event loop.

    Time starts at 0.0 and only moves forward.  All mutation of simulated
    state must happen inside event callbacks (or before :meth:`run` is
    called), which gives run-to-completion semantics per event.

    Ordering guarantee: events execute in (time, scheduling order) — the
    same total order as a (time, sequence-number) heap — regardless of
    whether they were enqueued via :meth:`schedule_at` or :meth:`post_at`.

    Counter granularity: :attr:`events_executed` (and therefore
    :attr:`pending_count`) is updated when :meth:`run` returns, not after
    every callback, so reads *from inside an event callback* may lag by
    the events executed so far in the current ``run()`` call.
    """

    __slots__ = ("_now", "_seq", "_cancels", "_buckets", "_theap",
                 "_events_executed", "_running", "_active", "_active_idx")

    def __init__(self) -> None:
        self._now = 0.0
        #: Total entries ever enqueued; doubles as the sequence counter.
        self._seq = 0
        #: Cancellations of still-pending events (see pending_count).
        self._cancels = 0
        #: Buckets: exact timestamp -> FIFO list of entries.  An entry is
        #: either an EventHandle or a bare callable (post_at fast path).
        #: Private to this module: a bucket is popped from this dict
        #: *before* the run loop drains it, so a callback scheduling at
        #: the current time starts a fresh bucket behind the active one.
        self._buckets: Dict[float, list] = {}
        #: Heap of distinct timestamps; each pushed once per bucket.
        self._theap: List[float] = []
        self._events_executed = 0
        self._running = False
        # Partially drained bucket left behind by a max_events stop.
        self._active: Optional[list] = None
        self._active_idx = 0

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of callbacks run so far (cancelled events excluded)."""
        return self._events_executed

    @property
    def pending_count(self) -> int:
        """Number of live (non-cancelled, non-fired) events.  O(1)."""
        return self._seq - self._cancels - self._events_executed

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, time: float, callback: Callable[[], Any]) -> EventHandle:
        """Schedule ``callback`` to run at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f}, already at t={self._now:.6f}"
            )
        self._seq += 1
        handle = _new_handle(EventHandle)
        handle._sim = self
        handle.callback = callback
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = [handle]
            _heappush(self._theap, time)
        else:
            bucket.append(handle)
        return handle

    def schedule(self, delay: float, callback: Callable[[], Any]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        time = self._now + delay
        self._seq += 1
        handle = _new_handle(EventHandle)
        handle._sim = self
        handle.callback = callback
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = [handle]
            _heappush(self._theap, time)
        else:
            bucket.append(handle)
        return handle

    def call_soon(self, callback: Callable[[], Any]) -> EventHandle:
        """Schedule ``callback`` at the current time (after pending same-time events)."""
        return self.schedule_at(self._now, callback)

    def post_at(self, time: float, callback: Callable[[], Any]) -> None:
        """Fire-and-forget scheduling: no handle, no cancellation.

        This is the hot path for events that are never cancelled (datagram
        deliveries).  Ordering relative to handle-based events is exactly
        the scheduling order within a timestamp.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f}, already at t={self._now:.6f}"
            )
        self._seq += 1
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = [callback]
            _heappush(self._theap, time)
        else:
            bucket.append(callback)

    def post(self, delay: float, callback: Callable[[], Any]) -> None:
        """Relative-delay variant of :meth:`post_at`."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        self.post_at(self._now + delay, callback)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next live event.  Returns False when nothing is pending."""
        before = self._events_executed
        self.run(max_events=1)
        return self._events_executed != before

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` callbacks have executed.

        Returns the simulated time when the run stopped.  When stopping at
        ``until``, the clock is advanced to exactly ``until`` so subsequent
        scheduling is relative to the requested horizon.

        If an event callback raises, the exception propagates; the events
        that shared the failing event's timestamp and had not yet run are
        discarded along with it (the simulator itself stays usable).

        The cyclic garbage collector is paused while the loop runs and
        handed back the way the caller had it on every way out (return,
        raising callback, ``max_events`` stop).  A run allocates tens of
        thousands of short-lived containers — handles, envelopes, sample
        lists — which trip the collector's allocation thresholds a few
        hundred times, and every pass walks the whole heap to free
        nothing: what a run drops is never part of a reference cycle, so
        reference counting alone reclaims it
        (``tests/test_experiments_runner.py`` pins that a full collection
        after a run finds no garbage).  The one cyclic structure is a
        *finished* scenario's object graph (nodes <-> fabric <-> engine),
        which dies outside ``run``;
        ``experiments/parallel.py::_run_cell`` collects it there.  The
        collector's switch is process-global, which is safe because a
        process runs one simulation at a time, on one thread (the
        service's executors are child processes).
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            if max_events is None:
                return self._run_fast(until)
            return self._run_counted(until, max_events)
        finally:
            self._running = False
            if collecting:
                gc.enable()

    def _run_fast(self, until: Optional[float]) -> float:
        """Unbounded run loop (no max_events bookkeeping per event)."""
        theap = self._theap
        buckets = self._buckets
        heappop = heapq.heappop
        HANDLE = EventHandle
        limit = inf if until is None else until
        executed = 0
        try:
            active = self._active
            if active is not None:
                # Resume a bucket a previous max_events stop left behind.
                # Its timestamp is self._now already; honor the horizon.
                if self._now > limit:
                    return self._now
                idx = self._active_idx
                self._active = None
                n = len(active)
                while idx < n:
                    obj = active[idx]
                    idx += 1
                    if obj.__class__ is HANDLE:
                        cb = obj.callback
                        if cb is None:
                            continue
                        obj.callback = None
                        cb()
                    else:
                        obj()
                    executed += 1
            while theap:
                t = theap[0]
                if t > limit:
                    break
                heappop(theap)
                active = buckets.pop(t)
                self._now = t
                for obj in active:
                    if obj.__class__ is HANDLE:
                        cb = obj.callback
                        if cb is None:
                            continue
                        obj.callback = None
                        cb()
                    else:
                        obj()
                    executed += 1
            if until is not None and self._now < until:
                # The horizon was reached (or the queue drained below it):
                # advance the clock so a subsequent run(until=...) call
                # continues from there.
                self._now = until
            return self._now
        finally:
            self._events_executed += executed

    def _run_counted(self, until: Optional[float], max_events: int) -> float:
        """Run loop honoring a max_events budget (rare path)."""
        theap = self._theap
        buckets = self._buckets
        heappop = heapq.heappop
        HANDLE = EventHandle
        limit = inf if until is None else until
        executed = 0
        stopped_on_max = False
        try:
            active = self._active
            idx = self._active_idx
            if active is not None:
                if self._now > limit:
                    return self._now
                # Adopt the bucket before draining it: if a callback
                # raises, its remainder is discarded (same contract as
                # _run_fast) instead of being left behind to re-execute.
                self._active = None
            while True:
                if active is None:
                    if not theap:
                        break
                    t = theap[0]
                    if t > limit:
                        break
                    heappop(theap)
                    active = buckets.pop(t)
                    idx = 0
                    self._now = t
                n = len(active)
                while idx < n:
                    obj = active[idx]
                    idx += 1
                    if obj.__class__ is HANDLE:
                        cb = obj.callback
                        if cb is None:
                            continue
                        obj.callback = None
                        cb()
                    else:
                        obj()
                    executed += 1
                    if executed >= max_events:
                        stopped_on_max = True
                        break
                if stopped_on_max:
                    break
                active = None
            if stopped_on_max and idx < len(active):
                # Remember the partially drained bucket for the next call.
                self._active = active
                self._active_idx = idx
            else:
                self._active = None
            if until is not None and not stopped_on_max and self._now < until:
                self._now = until
            return self._now
        finally:
            self._events_executed += executed

    def drain(self, limit: int = 10_000_000) -> int:
        """Run until no events remain; guards against runaway loops.

        Returns the number of events executed.  Raises
        :class:`SimulationError` if ``limit`` events execute without the
        queue draining, which almost always indicates an unintended
        self-rescheduling loop in a test.
        """
        before = self._events_executed
        self.run(max_events=limit)
        executed = self._events_executed - before
        if executed >= limit:
            raise SimulationError(f"drain() exceeded {limit} events")
        return executed
