"""Deterministic discrete-event simulator core.

The :class:`Simulator` keeps one binary heap of ``(time, seq, fn, arg)``
tuples.  ``seq`` is the simulator's enqueue counter, so events execute in
(time, scheduling order): same-time events keep the order they were
scheduled in, whichever API enqueued them.  Ties are rare in practice —
HEAP nodes gossip on independently phased timers over continuous-latency
links, and 0 of 624,665 enqueues shared a timestamp across every
measured scenario — so the heap carries no per-timestamp grouping.

An entry whose ``arg`` is not ``None`` runs ``fn(arg)``: that is a
datagram's arrival, which the router queues as ``(arrival time, seq,
deliver, envelope)`` itself, so an arrival costs the loop one call and
no intermediate object.  About 80 % of the events of the paper's
deployment are arrivals, so the loop tests ``arg`` first.  Every other
entry has ``arg is None`` and ``fn`` is one of:

* an :class:`EventHandle` — :meth:`Simulator.schedule` /
  :meth:`Simulator.schedule_at` return one, and it cancels its event (a
  periodic timer keeps its handle for its whole life and queues it again
  on every tick);
* a bare callable — :meth:`Simulator.post_at`, the fire-and-forget path
  with no handle allocation;
* a :class:`Lane` (:meth:`Simulator.lane`) — fire-and-forget events
  posted in nondecreasing time order, of which only the first sits in the
  heap.  Waits that are mostly far in the future — retransmission
  expiries, crash detections — ride lanes, so the heap every event pops
  and pushes stays the size of the live, near-term work.  A lane's entries
  take their ``seq`` at post time and rise in ``(time, seq)``, and the
  heap always holds each lane's smallest, so events pop in exactly the
  order one heap holding every entry would give.

Cancellation is lazy (the handle is marked dead and skipped when it
reaches the top of the heap).  A counter of cancelled entries still in
the heap makes :attr:`Simulator.pending_count` O(1) instead of a heap
scan.
"""

from __future__ import annotations

import gc
from collections import deque
from heapq import heappop as _heappop
from heapq import heappush as _heappush
from math import inf
from sys import maxsize
from typing import Any, Callable, Iterable, List, Optional, Tuple


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


class Lane:
    """Fire-and-forget events posted in nondecreasing time order.

    Each :meth:`post` stores ``(time, seq, *args)``, taking ``seq`` from
    the simulator's enqueue counter, so a lane entry ties with any other
    event exactly as a :meth:`Simulator.post_at` made at the same moment
    would.  Only the lane's first entry is in the heap, under that
    entry's own ``(time, seq)``, with the lane itself as ``fn``:
    when it fires, it first queues its next entry, then calls
    ``handler(*args)``.  Entries cannot be cancelled.
    """

    __slots__ = ("_sim", "_handler", "_queue")

    def __init__(self, sim: "Simulator", handler: Callable[..., Any]):
        self._sim = sim
        self._handler = handler
        self._queue: deque = deque()

    def post(self, delay: float, *args: Any) -> None:
        """Queue ``handler(*args)`` to run ``delay`` seconds from now.

        Raises :class:`SimulationError` for a negative or NaN delay, and
        for a time earlier than the lane's last queued entry.
        """
        if not delay >= 0:
            raise SimulationError(f"negative delay {delay!r}")
        sim = self._sim
        time = sim._now + delay
        queue = self._queue
        if queue and time < queue[-1][0]:
            raise SimulationError(
                f"lane post at t={time:.6f} precedes its last entry at "
                f"t={queue[-1][0]:.6f}")
        seq = sim._seq + 1
        sim._seq = seq
        if queue:
            sim._backlog += 1
        else:
            _heappush(sim._heap, (time, seq, self, None))
        queue.append((time, seq) + args)

    def post_many(self, entries: Iterable[Tuple[float, Any]]) -> None:
        """``post(delay, arg)`` for each ``(delay, arg)`` pair, in order.

        Leaves the same entries, seqs, backlog and heap head as that loop,
        refusals included: entries before a refused one stay queued.
        """
        sim = self._sim
        now = sim._now
        queue = self._queue
        append = queue.append
        idle = not queue
        last = now if idle else queue[-1][0]
        seq = sim._seq
        try:
            for delay, arg in entries:
                if not delay >= 0:
                    raise SimulationError(f"negative delay {delay!r}")
                time = now + delay
                if time < last:
                    raise SimulationError(
                        f"lane post at t={time:.6f} precedes its last "
                        f"entry at t={last:.6f}")
                seq += 1
                append((time, seq, arg))
                last = time
        finally:
            added = seq - sim._seq
            if added:
                sim._seq = seq
                sim._backlog += added
                if idle:
                    head = queue[0]
                    sim._backlog -= 1
                    _heappush(sim._heap, (head[0], head[1], self, None))

    def __call__(self) -> None:
        queue = self._queue
        entry = queue.popleft()
        if queue:
            head = queue[0]
            sim = self._sim
            sim._backlog -= 1
            _heappush(sim._heap, (head[0], head[1], self, None))
        self._handler(*entry[2:])


class Simulator:
    """A single-threaded discrete-event loop.

    Time starts at 0.0 and only moves forward.  All mutation of simulated
    state must happen inside event callbacks (or before :meth:`run` is
    called), which gives run-to-completion semantics per event.

    Ordering guarantee: events execute in (time, scheduling order),
    whether they were enqueued via :meth:`schedule_at`, :meth:`post_at`
    or a :class:`Lane`.

    Counter granularity: :attr:`events_executed` is updated when
    :meth:`run` returns, not after every callback, so reads *from inside
    an event callback* may lag by the events executed so far in the
    current ``run()`` call.  :attr:`pending_count` is exact at any time.
    """

    __slots__ = ("_now", "_seq", "_cancels", "_backlog", "_heap",
                 "_events_executed", "_running")

    def __init__(self) -> None:
        self._now = 0.0
        #: Enqueue counter: the heap's tie-breaker, so same-time events
        #: run in scheduling order.
        self._seq = 0
        #: Cancelled handles still in the heap (see pending_count).
        self._cancels = 0
        #: Lane entries queued behind their lane's head (see pending_count).
        self._backlog = 0
        #: ``(time, seq, fn, arg)`` tuples: ``fn(arg)`` for an arrival,
        #: else ``arg is None`` and ``fn`` is an EventHandle, a bare
        #: callable (post_at fast path) or a Lane holding its head.
        self._heap: List[tuple] = []
        self._events_executed = 0
        self._running = False

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
        """Number of live (non-cancelled, non-fired) events, lane
        entries included.  O(1)."""
        return len(self._heap) - self._cancels + self._backlog

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, time: float, callback: Callable[[], Any]) -> EventHandle:
        """Schedule ``callback`` to run at absolute simulated ``time``."""
        # Written as ``not >=`` so a NaN time is refused too: once queued
        # it would stop run() at the heap's head.  Every guard below
        # does the same.
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f}, already at t={self._now:.6f}"
            )
        seq = self._seq + 1
        self._seq = seq
        handle = _new_handle(EventHandle)
        handle._sim = self
        handle.callback = callback
        _heappush(self._heap, (time, seq, handle, None))
        return handle

    def schedule(self, delay: float, callback: Callable[[], Any]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if not delay >= 0:
            raise SimulationError(f"negative delay {delay!r}")
        seq = self._seq + 1
        self._seq = seq
        handle = _new_handle(EventHandle)
        handle._sim = self
        handle.callback = callback
        _heappush(self._heap, (self._now + delay, seq, handle, None))
        return handle

    def lane(self, handler: Callable[..., Any]) -> Lane:
        """A new :class:`Lane` whose entries run ``handler(*args)``."""
        return Lane(self, handler)

    def post_at(self, time: float, callback: Callable[[], Any]) -> None:
        """Fire-and-forget scheduling: no handle, no cancellation.

        For events that are never cancelled.  Ordering relative to
        handle-based events is exactly the scheduling order within a
        timestamp.
        """
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f}, already at t={self._now:.6f}"
            )
        seq = self._seq + 1
        self._seq = seq
        _heappush(self._heap, (time, seq, callback, None))

    def post(self, delay: float, callback: Callable[[], Any]) -> None:
        """Relative-delay variant of :meth:`post_at`."""
        if not delay >= 0:
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
        scheduling is relative to the requested horizon; a ``max_events``
        stop leaves the clock at the last executed event.

        If an event callback raises, the exception propagates.  The
        raising event is consumed (and not counted in
        :attr:`events_executed`); every other event stays queued, its
        same-time peers included, and the next ``run()`` picks them up.

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
        heap = self._heap
        heappop = _heappop
        HANDLE = EventHandle
        limit = inf if until is None else until
        budget = maxsize if max_events is None else max_events
        executed = 0
        try:
            while heap and heap[0][0] <= limit:
                t, _, obj, arg = heappop(heap)
                self._now = t
                if arg is not None:
                    obj(arg)
                elif obj.__class__ is HANDLE:
                    cb = obj.callback
                    if cb is None:
                        self._cancels -= 1
                        continue
                    obj.callback = None
                    cb()
                else:
                    obj()
                executed += 1
                if executed >= budget:
                    return t
            if until is not None and self._now < until:
                # The horizon was reached (or the queue drained below it):
                # advance the clock so a subsequent run(until=...) call
                # continues from there.
                self._now = until
            return self._now
        finally:
            self._events_executed += executed
            self._running = False
            if collecting:
                gc.enable()

    def drain(self, limit: int = 10_000_000) -> int:
        """Run until no events remain; guards against runaway loops.

        Returns the number of events executed.  Raises
        :class:`SimulationError` if events are still pending once
        ``limit`` have executed, which almost always indicates an
        unintended self-rescheduling loop in a test.
        """
        before = self._events_executed
        self.run(max_events=limit)
        executed = self._events_executed - before
        if executed >= limit and self.pending_count:
            raise SimulationError(f"drain() exceeded {limit} events")
        return executed
