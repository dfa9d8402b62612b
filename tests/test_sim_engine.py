"""Unit tests for the discrete-event engine."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator
from repro.sim.timers import PeriodicTimer


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.events_executed == 0


def test_schedule_and_run_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.5, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.5]
    assert sim.now == 1.5


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, lambda: order.append("c"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(2.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_run_in_scheduling_order():
    sim = Simulator()
    order = []
    for label in "abcde":
        sim.schedule(1.0, lambda label=label: order.append(label))
    sim.run()
    assert order == list("abcde")


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(2.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [2.0]


def test_schedule_in_the_past_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append("x"))
    handle.cancel()
    sim.run()
    assert fired == []
    assert sim.events_executed == 0


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()
    assert not handle.pending


def test_events_scheduled_during_execution_run():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(1.0, lambda: fired.append("second"))

    sim.schedule(1.0, first)
    sim.run()
    assert fired == ["first", "second"]
    assert sim.now == 2.0


def test_call_soon_runs_at_current_time_after_peers():
    sim = Simulator()
    order = []

    def event():
        order.append("event")
        sim.call_soon(lambda: order.append("soon"))

    sim.schedule(1.0, event)
    sim.schedule(1.0, lambda: order.append("peer"))
    sim.run()
    assert order == ["event", "peer", "soon"]


def test_run_until_stops_at_horizon_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(5.0, lambda: fired.append(5))
    stopped = sim.run(until=3.0)
    assert fired == [1]
    assert stopped == 3.0
    assert sim.now == 3.0
    sim.run()
    assert fired == [1, 5]


def test_run_until_includes_events_at_exact_horizon():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, lambda: fired.append("edge"))
    sim.run(until=3.0)
    assert fired == ["edge"]


def test_run_max_events_stops_early_without_clock_jump():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(float(i + 1), lambda i=i: fired.append(i))
    sim.run(until=100.0, max_events=2)
    assert fired == [0, 1]
    assert sim.now == 2.0


def test_step_returns_false_on_empty_heap():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_pending_count_excludes_cancelled():
    sim = Simulator()
    keep = sim.schedule(1.0, lambda: None)
    drop = sim.schedule(2.0, lambda: None)
    drop.cancel()
    assert sim.pending_count == 1
    assert keep.pending


def test_drain_guards_against_runaway():
    sim = Simulator()

    def reschedule():
        sim.schedule(1.0, reschedule)

    sim.schedule(1.0, reschedule)
    with pytest.raises(SimulationError):
        sim.drain(limit=100)


def test_drain_of_exactly_limit_events_does_not_raise():
    sim = Simulator()
    for delay in (1.0, 2.0, 3.0):
        sim.post(delay, lambda: None)
    assert sim.drain(limit=3) == 3
    assert sim.pending_count == 0


def test_nan_times_and_delays_are_refused():
    # A queued NaN stopped run() at the heap's head: with events at 0.5,
    # 1, 2 and NaN it returned 1.0 and the event at 2.0 never ran.
    nan = float("nan")
    sim = Simulator()
    fired = []
    for time in (0.5, 1.0, 2.0):
        sim.post_at(time, lambda time=time: fired.append(time))
    refused = [
        lambda: sim.schedule_at(nan, lambda: fired.append(nan)),
        lambda: sim.schedule(nan, lambda: fired.append(nan)),
        lambda: sim.post_at(nan, lambda: fired.append(nan)),
        lambda: sim.post(nan, lambda: fired.append(nan)),
        lambda: sim.lane(fired.append).post(nan, nan),
    ]
    for call in refused:
        with pytest.raises(SimulationError):
            call()
    assert sim.pending_count == 3
    assert sim.run() == 2.0
    assert fired == [0.5, 1.0, 2.0]


def test_run_is_not_reentrant():
    sim = Simulator()
    errors = []

    def nested():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, nested)
    sim.run()
    assert len(errors) == 1


def test_many_events_deterministic_order():
    sim = Simulator()
    order = []
    import random
    rng = random.Random(42)
    times = [rng.uniform(0, 100) for _ in range(500)]
    for i, t in enumerate(times):
        sim.schedule(t, lambda i=i: order.append(i))
    sim.run()
    expected = [i for _, i in sorted(zip(times, range(500)))]
    assert order == expected


# ----------------------------------------------------------------------
# live pending counter (replaces the historical O(n) heap scan)
# ----------------------------------------------------------------------
class TestPendingCounter:
    def test_counts_scheduled_and_fired(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_count == 2
        sim.run(until=1.0)
        assert sim.pending_count == 1
        sim.run()
        assert sim.pending_count == 0

    def test_cancel_decrements_once(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.pending_count == 1
        handle.cancel()  # idempotent: must not decrement again
        assert sim.pending_count == 1

    def test_cancel_after_fire_keeps_count_consistent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.0)
        assert sim.pending_count == 1
        handle.cancel()  # already fired: a no-op for accounting
        assert sim.pending_count == 1
        assert handle.cancelled
        assert not handle.pending

    def test_post_at_events_are_counted(self):
        sim = Simulator()
        sim.post_at(1.0, lambda: None)
        sim.post(2.0, lambda: None)
        assert sim.pending_count == 2
        sim.run()
        assert sim.pending_count == 0

    def test_counter_is_not_a_heap_scan(self):
        # Regression guard for the O(n) pending_count scan: the property
        # must answer from counters even with a large pending backlog.
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None)
                   for i in range(5000)]
        for handle in handles[::2]:
            handle.cancel()
        assert sim.pending_count == 2500


# ----------------------------------------------------------------------
# cancel()-after-fire and run(until=...) clock-advance edge cases
# ----------------------------------------------------------------------
class TestCancelAndClockEdges:
    def test_cancelled_event_is_skipped_then_cancel_after_fire_is_safe(self):
        sim = Simulator()
        fired = []
        first = sim.schedule(1.0, lambda: fired.append("first"))
        sim.run()
        first.cancel()
        # The simulator must stay fully usable after a late cancel.
        sim.schedule(1.0, lambda: fired.append("second"))
        sim.run()
        assert fired == ["first", "second"]

    def test_run_until_advances_clock_on_empty_queue(self):
        sim = Simulator()
        assert sim.run(until=5.0) == 5.0
        assert sim.now == 5.0

    def test_run_until_advances_clock_when_queue_drains_early(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.run(until=10.0) == 10.0
        assert sim.now == 10.0

    def test_repeated_run_until_is_monotonic(self):
        sim = Simulator()
        fired = []
        for t in (1.0, 4.0, 9.0):
            sim.schedule_at(t, lambda t=t: fired.append(t))
        assert sim.run(until=2.0) == 2.0
        assert sim.run(until=2.0) == 2.0  # re-running at the horizon: no-op
        assert sim.run(until=5.0) == 5.0
        assert fired == [1.0, 4.0]
        sim.run()
        assert fired == [1.0, 4.0, 9.0]

    def test_scheduling_below_advanced_clock_raises(self):
        sim = Simulator()
        sim.run(until=3.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(2.9, lambda: None)

    def test_max_events_stops_inside_a_same_time_bucket_and_resumes(self):
        sim = Simulator()
        order = []
        for label in "abcd":
            sim.schedule(1.0, lambda label=label: order.append(label))
        sim.run(max_events=2)
        assert order == ["a", "b"]
        assert sim.now == 1.0
        assert sim.pending_count == 2
        sim.run()
        assert order == ["a", "b", "c", "d"]

    def test_max_events_resume_honors_horizon(self):
        sim = Simulator()
        order = []
        for label in "ab":
            sim.schedule(2.0, lambda label=label: order.append(label))
        sim.run(max_events=1)
        assert order == ["a"]
        # The remaining t=2.0 event sits beyond this horizon:
        sim.run(until=1.0)
        assert order == ["a"]
        sim.run(until=2.0)
        assert order == ["a", "b"]


# ----------------------------------------------------------------------
# the fire-and-forget fast path
# ----------------------------------------------------------------------
class TestPostAt:
    def test_post_at_interleaves_with_handles_in_scheduling_order(self):
        sim = Simulator()
        order = []
        sim.schedule_at(1.0, lambda: order.append("h1"))
        sim.post_at(1.0, lambda: order.append("p1"))
        sim.schedule_at(1.0, lambda: order.append("h2"))
        sim.post_at(0.5, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "h1", "p1", "h2"]

    def test_post_in_the_past_raises(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.post_at(0.5, lambda: None)
        with pytest.raises(SimulationError):
            sim.post(-0.1, lambda: None)

    def test_post_events_count_as_executed(self):
        sim = Simulator()
        sim.post(1.0, lambda: None)
        sim.post(1.0, lambda: None)
        sim.run()
        assert sim.events_executed == 2


# ----------------------------------------------------------------------
# lanes
# ----------------------------------------------------------------------
class TestLane:
    def test_entries_run_in_order_with_their_args(self):
        sim = Simulator()
        got = []
        lane = sim.lane(lambda *args: got.append((sim.now,) + args))
        lane.post(1.0, "a", 1)
        lane.post(1.0, "b", 2)
        lane.post(2.5, "c", 3)
        sim.post_at(2.0, lambda: got.append((sim.now, "p")))
        assert sim.pending_count == 4
        assert len(sim._heap) == 2  # the lane's head and the post
        sim.run()
        assert got == [(1.0, "a", 1), (1.0, "b", 2), (2.0, "p"),
                       (2.5, "c", 3)]
        assert sim.events_executed == 4 and sim.pending_count == 0

    def test_an_entry_earlier_than_the_last_is_refused(self):
        sim = Simulator()
        lane = sim.lane(lambda: None)
        lane.post(2.0)
        lane.post(2.0)
        with pytest.raises(SimulationError):
            lane.post(1.0)
        with pytest.raises(SimulationError):
            lane.post(-1.0)
        assert sim.pending_count == 2
        sim.run()
        assert sim.events_executed == 2 and sim.now == 2.0
        # Once the lane is empty, any time from now on is accepted.
        lane.post(0.0)
        assert sim.pending_count == 1

    def test_an_entry_posted_before_an_equal_time_post_at_runs_first(self):
        # The lane's second entry takes its seq when it is posted, not
        # when its predecessor fires and queues it in the heap: at t=2
        # it must run before the post_at made after it, although the
        # lane entry at t=1 fires (and re-queues the lane) in between.
        sim = Simulator()
        order = []
        lane = sim.lane(order.append)
        lane.post(1.0, "lane@1")
        lane.post(2.0, "lane@2")
        sim.post_at(2.0, lambda: order.append("post@2"))
        sim.run()
        assert order == ["lane@1", "lane@2", "post@2"]

    def test_a_handler_reposting_on_its_own_lane(self):
        sim = Simulator()
        fired = []

        def expire(retries):
            fired.append((sim.now, retries))
            if retries:
                lane.post(1.0, retries - 1)

        lane = sim.lane(expire)
        lane.post(1.0, 2)
        lane.post(1.5, 0)
        sim.run()
        assert fired == [(1.0, 2), (1.5, 0), (2.0, 1), (3.0, 0)]

    def test_pending_count_is_exact_inside_a_handler_and_after_a_raise(self):
        sim = Simulator()
        seen = []

        def handler(raises):
            seen.append(sim.pending_count)
            if raises:
                raise _Boom()

        lane = sim.lane(handler)
        for raises in (False, True, False):
            lane.post(1.0, raises)
        with pytest.raises(_Boom):
            sim.run()
        assert seen == [2, 1]
        assert sim.pending_count == 1 and len(sim._heap) == 1
        sim.run()
        assert seen == [2, 1, 0] and sim.pending_count == 0
        assert sim.events_executed == 2



def _lane_state(sim, lane):
    """Everything a lane post can change, the heap's callables named."""
    heap = sorted((t, seq, "lane" if entry is lane else "other")
                  for t, seq, entry, _ in sim._heap)
    return (heap, list(lane._queue), sim._seq, sim._backlog,
            sim.pending_count)


_POST_DELAYS = st.one_of(st.floats(-1.0, 4.0), st.just(float("nan")),
                         st.just(float("inf")), st.sampled_from([0.0, 1.0]))


@settings(max_examples=200, deadline=None)
@given(start=st.sampled_from([0.0, 0.5, 2.0]),
       queued=st.lists(st.floats(0.0, 3.0), max_size=3),
       entries=st.lists(_POST_DELAYS, max_size=6),
       others=st.lists(st.floats(0.0, 3.0), max_size=3))
def test_lane_post_many_equals_a_loop_of_post(start, queued, entries,
                                              others):
    """Same heap, queue, seqs, backlog and refusal as posting one by one,
    on an idle lane or one with queued entries, between other events."""
    runs = []
    for many in (True, False):
        sim = Simulator()
        fired = []
        sim.post_at(start, lambda: None)
        sim.run()
        lane = sim.lane(fired.append)
        for i, delay in enumerate(sorted(queued)):
            lane.post(delay, f"q{i}")
        for delay in others:
            sim.post(delay, lambda d=delay: fired.append(f"o{d}"))
        pairs = [(delay, i) for i, delay in enumerate(entries)]
        refusal = None
        try:
            if many:
                lane.post_many(iter(pairs))
            else:
                for delay, arg in pairs:
                    lane.post(delay, arg)
        except SimulationError as exc:
            refusal = str(exc)
        state = _lane_state(sim, lane)
        sim.run()
        runs.append((refusal, state, fired, sim.events_executed))
    assert runs[0] == runs[1]


def test_lane_post_many_of_nothing_takes_no_seq():
    sim = Simulator()
    lane = sim.lane(lambda _: None)
    lane.post_many([])
    lane.post_many(iter(()))
    assert sim._seq == 0 and sim.pending_count == 0 and not sim._heap
    lane.post(1.0, "a")
    lane.post_many([])
    assert sim._seq == 1 and sim.pending_count == 1


# ----------------------------------------------------------------------
# engine vs reference-heap ordering equivalence
# ----------------------------------------------------------------------
class ReferenceHeapScheduler:
    """The seed's (time, sequence-number) binary heap, kept as an oracle."""

    def __init__(self):
        import heapq
        self._heapq = heapq
        self._heap = []
        self._seq = 0
        self.now = 0.0

    def schedule_at(self, time, callback):
        self._heapq.heappush(self._heap, (time, self._seq, callback))
        self._seq += 1

    def run(self):
        while self._heap:
            time, _, callback = self._heapq.heappop(self._heap)
            self.now = time
            callback()


def test_bucket_queue_matches_reference_heap_under_timestamp_ties():
    # The satellite concern: the calendar-bucket engine must order
    # same-timestamp events exactly like the (time, seq) heap it
    # replaced, including heavy tie pile-ups and post_at/schedule mixes.
    import random

    rng = random.Random(20260726)
    times = [rng.choice([0.5, 1.0, 1.0, 1.0, 2.5, 2.5, round(rng.uniform(0, 3), 2)])
             for _ in range(400)]

    sim = Simulator()
    reference = ReferenceHeapScheduler()
    got, expected = [], []
    for i, t in enumerate(times):
        if i % 3 == 0:
            sim.post_at(t, lambda i=i: got.append((sim.now, i)))
        else:
            sim.schedule_at(t, lambda i=i: got.append((sim.now, i)))
        reference.schedule_at(
            t, lambda i=i, t=t: expected.append((t, i)))
    sim.run()
    reference.run()
    assert got == expected


def test_bucket_queue_matches_reference_heap_with_nested_scheduling():
    rng_times = [1.0, 1.0, 2.0, 1.0, 3.0]

    sim = Simulator()
    order = []

    def spawn(i, t):
        order.append(i)
        if i < 40:
            # Re-schedule at the same timestamp and a later one: the
            # same-time event must run after all already-queued t events.
            sim.schedule_at(t, lambda: order.append((i, "same")))
            sim.schedule_at(t + 1.0, lambda: order.append((i, "later")))

    for i, t in enumerate(rng_times):
        sim.schedule_at(t, lambda i=i, t=t: spawn(i, t))
    sim.run()

    # Same workload on the reference heap.
    reference = ReferenceHeapScheduler()
    expected = []

    def ref_spawn(i, t):
        expected.append(i)
        if i < 40:
            reference.schedule_at(t, lambda: expected.append((i, "same")))
            reference.schedule_at(t + 1.0, lambda: expected.append((i, "later")))

    for i, t in enumerate(rng_times):
        reference.schedule_at(t, lambda i=i, t=t: ref_spawn(i, t))
    reference.run()
    assert order == expected


def test_exception_during_counted_resume_does_not_replay_events():
    # Regression: a callback raising during a run resumed after a
    # max_events stop must not re-execute events that already fired or
    # corrupt accounting.  The raising event is consumed; its same-time
    # peer "d" stays queued for the next run().
    sim = Simulator()
    order = []

    def boom():
        order.append("c")
        raise RuntimeError("boom")

    for entry in ("a", "b"):
        sim.post(1.0, lambda entry=entry: order.append(entry))
    sim.post(1.0, boom)
    sim.post(1.0, lambda: order.append("d"))
    sim.run(max_events=1)
    assert order == ["a"]
    with pytest.raises(RuntimeError):
        sim.run(max_events=10)
    assert order == ["a", "b", "c"]
    # Nothing replays; "d" runs on the next call.
    sim.run()
    assert order == ["a", "b", "c", "d"]
    # As in the original heap engine, a callback that raises is not
    # counted as executed ("a", "b" and "d" are).
    assert sim.events_executed == 3
    assert sim.pending_count == 0


def test_pending_count_is_exact_after_a_raising_callback():
    sim = Simulator()
    fired = []

    def boom():
        raise RuntimeError("boom")

    sim.post(1.0, lambda: fired.append("a"))
    sim.post(1.0, boom)
    sim.post(1.0, lambda: fired.append("c"))
    with pytest.raises(RuntimeError):
        sim.run()
    assert sim.pending_count == 1
    sim.run()
    assert fired == ["a", "c"]
    assert sim.pending_count == 0


class _Boom(Exception):
    pass


class ReferenceModel(ReferenceHeapScheduler):
    """The oracle heap plus the rest of the engine's observable contract:
    lazy cancel, ``run(until=, max_events=)``, the executed/pending
    counters, and a raising callback consuming only its own event."""

    def __init__(self):
        super().__init__()
        self.live = set()  # seqs of queued, uncancelled events
        self.events_executed = 0

    def schedule_at(self, time, callback):
        seq = self._seq
        super().schedule_at(time, callback)
        self.live.add(seq)
        return seq

    def cancel(self, seq):
        self.live.discard(seq)

    @property
    def pending_count(self):
        return len(self.live)

    def run(self, until=None, max_events=None):
        executed = 0
        while self._heap and (until is None or self._heap[0][0] <= until):
            time, seq, callback = self._heapq.heappop(self._heap)
            self.now = time
            if seq not in self.live:
                continue
            self.live.discard(seq)
            callback()
            self.events_executed += 1
            executed += 1
            if max_events is not None and executed >= max_events:
                return self.now
        if until is not None and self.now < until:
            self.now = until
        return self.now


class ReferencePeriodic:
    """A periodic timer on the reference model, with no handle reuse:
    every tick queues a brand-new event for the next one before the
    callback runs."""

    def __init__(self, model, period, callback):
        self.model = model
        self.period = period
        self.callback = callback
        self.seq = None
        self.ticks = 0

    @property
    def running(self):
        return self.seq is not None

    def start(self, phase):
        self.seq = self.model.schedule_at(self.model.now + phase, self._tick)

    def stop(self):
        if self.seq is not None:
            self.model.cancel(self.seq)
            self.seq = None

    def _tick(self):
        self.seq = self.model.schedule_at(self.model.now + self.period,
                                          self._tick)
        self.ticks += 1
        self.callback()


class ReferenceLane:
    """A lane on the reference model: every entry is an ordinary queued
    event, and a post earlier than the lane's last unfired entry is
    refused."""

    def __init__(self, model):
        self.model = model
        self.entries = []  # (time, seq) of every accepted post

    def post(self, delay, fire):
        if not delay >= 0:
            raise SimulationError("negative delay")
        time = self.model.now + delay
        if any(seq in self.model.live and queued > time
               for queued, seq in self.entries):
            raise SimulationError("out of order")
        self.entries.append((time, self.model.schedule_at(time, fire)))


def _invoke(fire):
    fire()


#: Delay of a lane entry's re-post onto its own lane (see _lane_event).
_REPOST_DELAY = 1.5


def _lane_post(lane, log, label, delay, fire):
    """Post ``fire`` on ``lane``; log a refusal instead of raising."""
    try:
        lane.post(delay, fire)
    except SimulationError:
        log.append((label + "!", None))


def _lane_event(target, lane, log, label, repost, raises):
    """A lane entry that logs, optionally re-posts onto its own lane —
    the retransmission expiry's pattern — and optionally raises."""
    def fire():
        log.append((label, target.now))
        if repost:
            _lane_post(lane, log, label + "~", _REPOST_DELAY,
                       lambda: log.append((label + "~", target.now)))
        if raises:
            raise _Boom(label)
    return fire


def _start_timer(target, make, log, label, period, phase, stop_after):
    """A periodic timer that logs each tick and stops itself, inside its
    own callback, once it has ticked ``stop_after`` times in total (so
    an unbounded run always ends)."""
    timers = []

    def tick():
        timer = timers[0]
        log.append((label, target.now))
        if timer.ticks >= stop_after:
            timer.stop()

    timers.append(make(target, period, tick))
    timers[0].start(phase)
    return timers[0]


def _stopper(target, log, label, timer):
    def fire():
        log.append((label, target.now))
        timer.stop()
    return fire


def _model_event(target, log, label, nested, raises):
    def fire():
        log.append((label, target.now))
        if nested:
            target.schedule_at(
                target.now, lambda: log.append((label + "+", target.now)))
        if raises:
            raise _Boom(label)
    return fire


def _raised(run):
    try:
        run()
    except _Boom:
        return True
    return False


_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0])
_OPS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["schedule", "post"]), _DELAYS,
              st.booleans(), st.integers(0, 7)),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("lane"), st.integers(0, 1), _DELAYS, st.booleans(),
              st.integers(0, 7)),
    st.tuples(st.just("timer"), st.sampled_from([0.5, 1.0, 1.5]), _DELAYS,
              st.integers(1, 4)),
    st.tuples(st.just("stop"), st.integers(0, 7)),
    st.tuples(st.just("stop_event"), st.integers(0, 7), _DELAYS),
    st.tuples(st.just("restart"), st.integers(0, 7), _DELAYS),
    st.tuples(st.just("until"), st.sampled_from([0.0, 0.5, 1.0, 3.0])),
    st.tuples(st.just("max_events"), st.integers(1, 4)),
    st.tuples(st.just("run")),
), max_size=40)


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_engine_matches_reference_model_under_random_interleavings(ops):
    """Events, cancels, bounded and unbounded runs, raising callbacks and
    periodic timers — stopped inside their own callback, from another
    event or between runs, and restarted after a stop — and lane posts,
    accepted or refused, from outside or from a lane's own handler,
    against the reference heap, step by step."""
    sim, model = Simulator(), ReferenceModel()
    got, expected = [], []
    lanes = [(sim.lane(_invoke), ReferenceLane(model)) for _ in range(2)]
    handles = []  # (engine handle, model seq) of every schedule() call
    timers = []  # (engine PeriodicTimer, ReferencePeriodic)
    for i, op in enumerate(ops):
        kind = op[0]
        if kind == "timer":
            _, period, phase, stop_after = op
            timers.append((
                _start_timer(sim, PeriodicTimer, got, f"t{i}", period,
                             phase, stop_after),
                _start_timer(model, ReferencePeriodic, expected, f"t{i}",
                             period, phase, stop_after)))
        elif kind in ("stop", "stop_event", "restart"):
            if timers:
                pair = timers[op[1] % len(timers)]
                if kind == "stop":
                    for timer in pair:
                        timer.stop()
                elif kind == "stop_event":
                    sim.post(op[2], _stopper(sim, got, f"s{i}", pair[0]))
                    model.schedule_at(model.now + op[2], _stopper(
                        model, expected, f"s{i}", pair[1]))
                elif not pair[1].running:
                    for timer in pair:
                        timer.start(op[2])
        elif kind in ("schedule", "post"):
            _, delay, nested, roll = op
            raises = roll == 0  # one event in eight raises
            label = f"e{i}"
            fire = _model_event(sim, got, label, nested, raises)
            ref_fire = _model_event(model, expected, label, nested, raises)
            seq = model.schedule_at(model.now + delay, ref_fire)
            if kind == "schedule":
                handles.append((sim.schedule(delay, fire), seq))
            else:
                sim.post(delay, fire)
        elif kind == "lane":
            _, index, delay, repost, roll = op
            raises = roll == 0
            label = f"l{i}"
            lane, ref_lane = lanes[index]
            _lane_post(lane, got, label, delay,
                       _lane_event(sim, lane, got, label, repost, raises))
            _lane_post(ref_lane, expected, label, delay,
                       _lane_event(model, ref_lane, expected, label, repost,
                                   raises))
        elif kind == "cancel":
            if handles:
                handle, seq = handles[op[1] % len(handles)]
                handle.cancel()
                model.cancel(seq)
        else:
            if kind == "until":
                kwargs = {"until": sim.now + op[1]}
            elif kind == "max_events":
                kwargs = {"max_events": op[1]}
            else:
                kwargs = {}
            assert (_raised(lambda: sim.run(**kwargs))
                    == _raised(lambda: model.run(**kwargs)))
        assert got == expected
        assert sim.now == model.now
        assert sim.events_executed == model.events_executed
        assert sim.pending_count == model.pending_count
        for timer, reference in timers:
            assert (timer.running, timer.ticks) == (reference.running,
                                                    reference.ticks)


class TestCollectorPause:
    """``run`` pauses the cyclic collector and hands it back as it was."""

    @pytest.fixture(autouse=True)
    def _collector_on(self):
        was = gc.isenabled()
        gc.enable()
        yield
        (gc.enable if was else gc.disable)()

    def test_paused_inside_a_callback_and_restored_on_return(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
        sim.post(2.0, lambda: seen.append(gc.isenabled()))
        sim.run()
        assert seen == [False, False]
        assert gc.isenabled()

    def test_restored_when_a_callback_raises(self):
        sim = Simulator()

        def boom():
            raise RuntimeError("boom")

        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError):
            sim.run()
        assert gc.isenabled()

    def test_paused_and_restored_on_the_max_events_path(self):
        sim = Simulator()
        seen = []
        for _ in range(3):
            sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
        sim.run(max_events=2)
        assert seen == [False, False] and gc.isenabled()
        sim.run(until=5.0, max_events=10)
        assert seen == [False] * 3 and gc.isenabled()

    def test_a_refused_nested_run_does_not_resume_the_collector(self):
        sim = Simulator()
        seen = []

        def nested():
            with pytest.raises(SimulationError):
                sim.run()
            seen.append(gc.isenabled())

        sim.schedule(1.0, nested)
        sim.schedule(2.0, lambda: seen.append(gc.isenabled()))
        sim.run()
        assert seen == [False, False]
        assert gc.isenabled()

    def test_a_caller_who_disabled_it_gets_it_back_disabled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        gc.disable()
        sim.run()
        assert not gc.isenabled()
        sim.schedule(1.0, lambda: None)
        sim.run(max_events=1)
        assert not gc.isenabled()

    def test_stepping_leaves_it_enabled(self):
        sim = Simulator()
        seen = []
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, lambda: seen.append(gc.isenabled()))
        while sim.step():
            assert gc.isenabled()
        assert seen == [False] * 3
        assert gc.isenabled()
