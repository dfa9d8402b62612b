"""Unit tests for the membership directory and delayed failure detection."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.membership.directory import MembershipDirectory
from repro.sim import engine
from repro.sim.engine import EventHandle, Simulator
from repro.workloads.churn import CatastrophicFailure


def make_directory(n=10, mean_delay=10.0, seed=1):
    sim = Simulator()
    directory = MembershipDirectory(sim, random.Random(seed), mean_detection_delay=mean_delay)
    directory.register_all(range(n))
    return sim, directory


def test_register_populates_views_symmetrically():
    _, directory = make_directory(n=5)
    for node in range(5):
        view = directory.view_of(node)
        assert len(view) == 4
        assert node not in view


def test_register_all_and_alive_count():
    _, directory = make_directory(n=7)
    assert directory.alive_count() == 7
    assert directory.alive_nodes == set(range(7))


def test_duplicate_register_rejected():
    _, directory = make_directory(n=3)
    with pytest.raises(ValueError):
        directory.register(0)


def test_late_join_becomes_visible_everywhere():
    _, directory = make_directory(n=3)
    directory.register(99)
    for node in range(3):
        assert 99 in directory.view_of(node)
    assert len(directory.view_of(99)) == 3


def test_crash_marks_dead_immediately_in_truth():
    sim, directory = make_directory(n=5)
    directory.crash(2)
    assert not directory.is_alive(2)
    assert directory.alive_count() == 4


def test_crash_removal_from_views_is_delayed():
    sim, directory = make_directory(n=5, mean_delay=10.0)
    directory.crash(2)
    # Immediately after the crash survivors still see node 2.
    assert 2 in directory.view_of(0)
    sim.run(until=20.0)  # max delay is 2 * mean = 20s
    for node in (0, 1, 3, 4):
        assert 2 not in directory.view_of(node)


def test_detection_delay_zero_is_immediate():
    sim, directory = make_directory(n=4, mean_delay=0.0)
    directory.crash(1)
    assert 1 not in directory.view_of(0)


def test_detection_delays_average_near_mean():
    sim = Simulator()
    rng = random.Random(42)
    directory = MembershipDirectory(sim, rng, mean_detection_delay=10.0)
    directory.register_all(range(200))
    directory.crash(0)
    # Sample the fraction of views that still contain node 0 at t=10:
    # uniform [0, 20] delays mean about half should have learned by then.
    sim.run(until=10.0)
    still_seeing = sum(1 for n in range(1, 200) if 0 in directory.view_of(n))
    assert 60 < still_seeing < 140
    sim.run(until=20.0)
    assert all(0 not in directory.view_of(n) for n in range(1, 200))


def test_crash_twice_is_noop():
    sim, directory = make_directory(n=3)
    directory.crash(1)
    directory.crash(1)
    assert directory.alive_count() == 2


def test_crash_many():
    sim, directory = make_directory(n=10, mean_delay=0.0)
    directory.crash_many([1, 2, 3])
    assert directory.alive_count() == 7


def test_pick_crash_victims_respects_fraction_and_protection():
    sim, directory = make_directory(n=100)
    victims = directory.pick_crash_victims(0.2, random.Random(7), protect=[0])
    assert len(victims) == 20
    assert 0 not in victims
    assert len(set(victims)) == 20


def test_pick_crash_victims_rejects_bad_fraction():
    _, directory = make_directory(n=10)
    with pytest.raises(ValueError):
        directory.pick_crash_victims(1.5, random.Random(1))


def test_pick_crash_victims_deterministic():
    _, d1 = make_directory(n=50)
    _, d2 = make_directory(n=50)
    v1 = d1.pick_crash_victims(0.5, random.Random(3))
    v2 = d2.pick_crash_victims(0.5, random.Random(3))
    assert v1 == v2


def test_negative_detection_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        MembershipDirectory(sim, random.Random(1), mean_detection_delay=-1.0)


# ----------------------------------------------------------------------
# The shared roster: same behaviour as one private set per node, O(N) state
# ----------------------------------------------------------------------
class _RefView:
    """``LocalView`` as it was before the shared roster: a private set and
    a lazily sorted list of the same.  The reference the roster-backed
    view must be indistinguishable from."""

    def __init__(self, owner, members=None):
        self.owner = owner
        self._members = set(members) if members is not None else set()
        self._members.discard(owner)
        self._members_list = []
        self._dirty = True

    def add(self, node_id):
        if node_id != self.owner and node_id not in self._members:
            self._members.add(node_id)
            self._dirty = True

    def remove(self, node_id):
        if node_id in self._members:
            self._members.remove(node_id)
            self._dirty = True

    def __contains__(self, node_id):
        return node_id in self._members

    def __len__(self):
        return len(self._members)

    def members(self):
        return set(self._members)

    def sample(self, k, rng, exclude=None):
        if k <= 0:
            return []
        if self._dirty:
            self._members_list = sorted(self._members)
            self._dirty = False
        candidates = self._members_list
        if exclude:
            candidates = [m for m in candidates if m not in exclude]
        if k >= len(candidates):
            return list(candidates)
        return rng.sample(candidates, k)


class _RefDirectory:
    """``MembershipDirectory.register`` / ``crash`` as they were: N ``add``
    calls per registration, one cancellable event per notification."""

    def __init__(self, sim, rng, mean_detection_delay):
        self._sim = sim
        self._rng = rng
        self.mean_detection_delay = mean_detection_delay
        self._alive = set()
        self._views = {}

    def register(self, node_id):
        if node_id in self._views:
            raise ValueError(f"node {node_id} already registered")
        view = _RefView(node_id, self._alive)
        self._views[node_id] = view
        for other_view in self._views.values():
            other_view.add(node_id)
        self._alive.add(node_id)
        return view

    def view_of(self, node_id):
        return self._views[node_id]

    @property
    def alive_nodes(self):
        return set(self._alive)

    def crash(self, node_id):
        if node_id not in self._alive:
            return
        self._alive.remove(node_id)
        for other_id, view in self._views.items():
            if other_id == node_id or other_id not in self._alive:
                continue
            if self.mean_detection_delay == 0:
                view.remove(node_id)
            else:
                delay = self._rng.uniform(0.0, 2.0 * self.mean_detection_delay)
                self._sim.schedule(delay, lambda v=view, n=node_id: v.remove(n))


class _Twin:
    """A roster-backed directory and the reference, fed the same calls."""

    ID_SPACE = range(41)

    def __init__(self, mean_delay, seed=5):
        self.sims = (Simulator(), Simulator())
        self.rngs = (random.Random(seed), random.Random(seed))
        self.new = MembershipDirectory(self.sims[0], self.rngs[0], mean_delay)
        self.ref = _RefDirectory(self.sims[1], self.rngs[1], mean_delay)
        self.registered = []

    def register(self, node_id):
        if node_id in self.registered:
            for directory in (self.new, self.ref):
                with pytest.raises(ValueError):
                    directory.register(node_id)
            return
        self.new.register(node_id)
        self.ref.register(node_id)
        self.registered.append(node_id)

    def crash(self, node_id):
        self.new.crash(node_id)
        self.ref.crash(node_id)

    def advance(self, dt):
        for sim in self.sims:
            sim.run(until=sim.now + dt)

    def on_view(self, owner, method, *args):
        getattr(self.new.view_of(owner), method)(*args)
        getattr(self.ref.view_of(owner), method)(*args)

    def sample(self, owner, k, seed, exclude):
        r_new, r_ref = random.Random(seed), random.Random(seed)
        got = self.new.view_of(owner).sample(k, r_new, exclude)
        want = self.ref.view_of(owner).sample(k, r_ref, exclude)
        assert got == want
        assert r_new.getstate() == r_ref.getstate()

    def check(self):
        assert self.new.alive_nodes == self.ref.alive_nodes
        assert self.rngs[0].getstate() == self.rngs[1].getstate()
        assert self.sims[0].events_executed == self.sims[1].events_executed
        assert self.sims[0].pending_count == self.sims[1].pending_count
        for owner in self.registered:
            new, ref = self.new.view_of(owner), self.ref.view_of(owner)
            assert len(new) == len(ref)
            assert new.members() == ref.members()
            assert [i in new for i in self.ID_SPACE] == [i in ref for i in self.ID_SPACE]
            self.sample(owner, 3, owner, None)
            self.sample(owner, 1, owner, None)


def is_shared(view):
    """Does ``view`` still read the directory's roster (no private set)?"""
    return view._roster is not None and view._members is None


_IDS = st.integers(0, 40)
_OPS = st.one_of(
    st.tuples(st.just("register"), _IDS),
    st.tuples(st.just("crash"), _IDS),
    st.tuples(st.just("advance"), st.floats(0.0, 4.0)),
    st.tuples(st.just("add"), _IDS, _IDS),
    st.tuples(st.just("remove"), _IDS, _IDS),
    st.tuples(st.just("sample"), _IDS, st.integers(-1, 45),
              st.integers(0, 2**16), st.sets(_IDS, max_size=5)),
)


@settings(max_examples=150, deadline=None)
@given(initial=st.lists(_IDS, unique=True, min_size=1, max_size=35),
       ascending=st.booleans(), mean_delay=st.sampled_from([0.0, 3.0]),
       ops=st.lists(_OPS, max_size=40))
def test_roster_views_match_the_private_set_reference(initial, ascending,
                                                      mean_delay, ops):
    """Any sequence of registrations (ascending or shuffled), crashes,
    fired notifications, direct view mutations and samples: the same
    ``len`` / ``in`` / ``members()`` at every step, the same ``sample``
    results with the same RNG consumption, the same directory-RNG draws
    and the same number of simulator events."""
    twin = _Twin(mean_delay)
    for node_id in sorted(initial) if ascending else initial:
        twin.register(node_id)
    twin.check()
    for op, *args in ops:
        if op in ("register", "crash", "advance"):
            getattr(twin, op)(*args)
        else:
            owner = twin.registered[args[0] % len(twin.registered)]
            if op == "sample":
                twin.sample(owner, *args[1:])
            else:
                twin.on_view(owner, op, args[1])
        twin.check()
    twin.advance(2 * mean_delay)
    twin.check()


def test_roster_is_sorted_whatever_the_registration_order():
    ids = list(range(300, 360))
    random.Random(9).shuffle(ids)
    twin = _Twin(mean_delay=3.0)
    for node_id in ids:
        twin.register(node_id)
    view = twin.new.view_of(ids[0])
    assert is_shared(view)
    assert view.sample(len(ids), random.Random(1)) == sorted(set(ids) - {ids[0]})
    for k in (1, 5, 7, 30):
        twin.sample(ids[0], k, seed=k, exclude=None)
        twin.sample(ids[-1], k, seed=k, exclude={ids[3], ids[4]})


@pytest.mark.parametrize("n", [2, 21, 22, 1000])
def test_sample_of_one_matches_the_reference(n):
    """``k == 1`` takes one ``randrange`` where the reference calls
    ``rng.sample(candidates, 1)``: same element, same RNG state, on a
    shared view, on one a crash made private, and with ``exclude`` — on
    both sides of ``random.sample``'s pool/set switch (n = 21 | 22)."""
    twin = _Twin(mean_delay=0.0)
    for node_id in range(500, 500 + n + 1):
        twin.register(node_id)
    owners = (500, 500 + n // 2, 500 + n)
    for crashed in (False, True):
        if crashed:
            twin.register(9999)
            twin.crash(9999)  # zero delay: every survivor diverges
        for owner in owners:
            assert is_shared(twin.new.view_of(owner)) is not crashed
            assert len(twin.new.view_of(owner)) == n
            for seed in range(8):
                twin.sample(owner, 1, seed, None)
                twin.sample(owner, 1, seed, {501, 500 + n})


def test_late_joiner_is_seeded_from_alive_while_survivors_still_see_the_dead():
    twin = _Twin(mean_delay=5.0)
    for node_id in range(8):
        twin.register(node_id)
    twin.crash(2)
    twin.register(99)
    twin.check()
    joiner = twin.new.view_of(99)
    assert not is_shared(joiner)
    assert joiner.members() == {0, 1, 3, 4, 5, 6, 7}
    # Nobody has been notified yet: survivors still see 2, and the joiner.
    for survivor in (0, 1, 3, 4, 5, 6, 7):
        view = twin.new.view_of(survivor)
        assert is_shared(view) and 2 in view and 99 in view
    twin.advance(10.0)
    twin.check()
    for survivor in (0, 1, 3, 4, 5, 6, 7):
        view = twin.new.view_of(survivor)
        assert not is_shared(view) and 2 not in view and 99 in view
    # Diverged views still learn about joins; the joiner was never told
    # about 2 (it joined after the notifications were drawn) and never is.
    twin.register(100)
    twin.check()
    assert all(100 in twin.new.view_of(n) for n in (0, 1, 3, 99))


def test_zero_detection_delay_diverges_survivors_at_once():
    twin = _Twin(mean_delay=0.0)
    for node_id in range(6):
        twin.register(node_id)
    twin.crash(4)
    twin.check()
    assert twin.sims[0].pending_count == 0
    assert all(not is_shared(twin.new.view_of(n)) and 4 not in twin.new.view_of(n)
               for n in (0, 1, 2, 3, 5))
    assert is_shared(twin.new.view_of(4))  # the dead are never notified


def test_crash_notifications_allocate_no_event_handle(monkeypatch):
    sim, directory = make_directory(n=30)
    allocated = []
    monkeypatch.setattr(engine, "_new_handle",
                        lambda cls: allocated.append(cls) or object.__new__(cls))
    directory.crash(3)
    # 29 notifications are queued, behind one heap entry for the crash.
    assert sim.pending_count == 29
    assert len(sim._heap) == 1
    assert not isinstance(sim._heap[0][2], EventHandle)
    assert allocated == []
    sim.run()
    assert sim.events_executed == 29 and sim.pending_count == 0
    assert allocated == []


def test_views_of_one_directory_share_one_roster():
    _, directory = make_directory(n=50)
    roster = directory.view_of(0)._roster
    assert all(is_shared(directory.view_of(n))
               and directory.view_of(n)._roster is roster for n in range(50))


def _retained_by_register_all(n):
    """tracemalloc bytes still held by a directory of ``n`` nodes.  Ids
    start beyond CPython's small-int cache, as a big population's do."""
    ids = list(range(1000, 1000 + n))
    tracemalloc.start()
    try:
        directory = MembershipDirectory(Simulator(), random.Random(1))
        directory.register_all(ids)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert directory.alive_count() == n
    return retained


def test_population_state_is_linear_in_population_size():
    """Before the shared roster a 4000-node directory retained ~180 KiB
    *per node* (N private sets of N−1 ids) and doubling N quadrupled it."""
    at_1k = _retained_by_register_all(1000)
    at_2k = _retained_by_register_all(2000)
    at_4k = _retained_by_register_all(4000)
    assert at_4k / 4000 < 1024
    assert at_2k <= 2.5 * at_1k


def test_only_notified_survivors_hold_a_private_set():
    sim, directory = make_directory(n=200, mean_delay=10.0)
    failure = CatastrophicFailure(0.2, at_time=1.0)
    failure.schedule(sim, directory, random.Random(3), crash_node=lambda n: None,
                     protect=[0])
    sim.run(until=1.5)  # just after the failure: few notifications have fired
    victims = failure.victims
    assert len(set(victims)) == 40
    survivors = [n for n in range(200) if n not in victims]
    notified = [n for n in survivors
                if any(v not in directory.view_of(n) for v in victims)]
    assert 0 < len(notified) < len(survivors)
    for n in survivors:
        assert is_shared(directory.view_of(n)) == (n not in notified)
    sim.run(until=21.0)
    assert not any(is_shared(directory.view_of(n)) for n in survivors)
    assert all(directory.view_of(n).members() == set(survivors) - {n}
               for n in survivors)
