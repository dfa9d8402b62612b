"""Unit tests for LocalView and selectors."""

import random
from bisect import insort

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.membership.selector import CapabilityBiasedSelector, UniformSelector
from repro.membership.view import LocalView, Roster, sample_indices


class TestLocalView:
    def test_excludes_owner_on_construction(self):
        view = LocalView(owner=1, members=[1, 2, 3])
        assert 1 not in view
        assert len(view) == 2

    def test_add_and_remove(self):
        view = LocalView(owner=0)
        view.add(5)
        assert 5 in view
        view.remove(5)
        assert 5 not in view

    def test_add_owner_is_noop(self):
        view = LocalView(owner=0)
        view.add(0)
        assert len(view) == 0

    def test_remove_absent_is_noop(self):
        view = LocalView(owner=0, members=[1])
        view.remove(99)
        assert len(view) == 1

    def test_members_returns_copy(self):
        view = LocalView(owner=0, members=[1, 2])
        members = view.members()
        members.add(99)
        assert 99 not in view

    def test_sample_uniform_without_replacement(self):
        view = LocalView(owner=0, members=range(1, 11))
        rng = random.Random(1)
        sample = view.sample(5, rng)
        assert len(sample) == 5
        assert len(set(sample)) == 5
        assert all(s in view for s in sample)

    def test_sample_more_than_available_returns_all(self):
        view = LocalView(owner=0, members=[1, 2, 3])
        assert sorted(view.sample(10, random.Random(1))) == [1, 2, 3]

    def test_sample_zero_or_negative(self):
        view = LocalView(owner=0, members=[1, 2, 3])
        assert view.sample(0, random.Random(1)) == []
        assert view.sample(-1, random.Random(1)) == []

    def test_sample_respects_exclude(self):
        view = LocalView(owner=0, members=[1, 2, 3, 4])
        sample = view.sample(10, random.Random(1), exclude={2, 4})
        assert sorted(sample) == [1, 3]

    def test_sample_deterministic_given_seed(self):
        view_a = LocalView(owner=0, members=range(1, 100))
        view_b = LocalView(owner=0, members=range(1, 100))
        assert view_a.sample(10, random.Random(7)) == view_b.sample(10, random.Random(7))

    def test_sample_roughly_uniform(self):
        view = LocalView(owner=0, members=range(1, 21))
        rng = random.Random(11)
        counts = {i: 0 for i in range(1, 21)}
        for _ in range(4000):
            for member in view.sample(2, rng):
                counts[member] += 1
        # Each of 20 members expected 400 times; allow generous slack.
        assert all(280 < c < 520 for c in counts.values())


# n on both sides of random.sample's pool/set switch: n <= 21 copies the
# population for k <= 5, n <= 85 for k = 7, n <= 277 for k = 40.
@pytest.mark.parametrize("n,k", [(5, 3), (21, 5), (22, 5), (85, 7), (86, 7),
                                 (277, 40), (278, 40), (1000, 7), (4000, 7)])
def test_sampling_a_range_yields_the_indices_sampling_a_list_picks(n, k):
    """The identity the roster-backed ``LocalView.sample`` relies on.  If
    a CPython release changes ``random.sample`` this fails here, by name,
    rather than as a golden-trace diff."""
    population = [1000 + 3 * i for i in range(n)]
    by_index, by_element = random.Random(n * k), random.Random(n * k)
    assert ([population[j] for j in by_index.sample(range(n), k)]
            == by_element.sample(population, k))
    assert by_index.getstate() == by_element.getstate()


@pytest.mark.parametrize("n", [2, 21, 22, 1000])
def test_one_draw_picks_what_a_sample_of_one_picks(n):
    """The ``k == 1`` identity: ``randrange(n)`` is the one ``_randbelow(n)``
    that ``sample(population, 1)`` makes on either side of the switch."""
    population = [1000 + 3 * i for i in range(n)]
    for seed in range(20):
        by_draw, by_sample = random.Random(seed), random.Random(seed)
        assert ([population[by_draw.randrange(n)]]
                == by_sample.sample(population, 1))
        assert by_draw.getstate() == by_sample.getstate()


@pytest.mark.parametrize("n", [2 ** e + d for e in (1, 3, 8, 16, 32)
                               for d in (-1, 0, 1)] + [999, 2 ** 31])
def test_randbelow_is_the_draw_randrange_makes(n):
    """A one-peer draw calls ``rng._randbelow(n)`` for ``randrange(n)``:
    the same value and the same state afterwards, rejection loop
    included (powers of two +-1 sit at its edges)."""
    for seed in range(10):
        direct, via = random.Random(seed), random.Random(seed)
        for _ in range(20):
            assert direct._randbelow(n) == via.randrange(n)
        assert direct.getstate() == via.getstate()


@pytest.mark.parametrize("n", [2, 21, 22, 1000])
@pytest.mark.parametrize("exclude", [None, {1003}, {1000, 1006}])
def test_sample_of_one_is_random_sample_of_one(n, exclude):
    """``view.sample(1, rng)`` — shared or private, filtered or not —
    returns the element ``rng.sample(candidates, 1)`` returns and leaves
    ``rng`` in the same state."""
    ids = [1000 + 3 * i for i in range(n + 1)]
    for owner in (ids[0], ids[n // 2], ids[-1]):
        candidates = [m for m in ids
                      if m != owner and not (exclude and m in exclude)]
        roster = Roster()
        roster.ids.extend(ids)
        for view in (LocalView(owner, roster=roster), LocalView(owner, ids)):
            for seed in range(10):
                got_rng, want_rng = random.Random(seed), random.Random(seed)
                want = (list(candidates) if len(candidates) <= 1
                        else want_rng.sample(candidates, 1))
                assert view.sample(1, got_rng, exclude) == want
                assert got_rng.getstate() == want_rng.getstate()


@st.composite
def _population_and_k(draw):
    # Sizes around random.sample's pool/set switch: n <= 21 keeps a pool
    # for k <= 5, n <= 85 for k in 6..7, n <= 277 for k in 8..21 and
    # n <= 1045 up to k = 85; the set path takes any larger n.
    k = draw(st.integers(0, 90))
    n = draw(st.one_of(st.integers(k, k + 30),
                       st.sampled_from([21, 22, 85, 86, 277, 278, 1045,
                                        1046]).filter(lambda n: n >= k),
                       st.integers(max(k, 1), 5000)))
    return n, k


@settings(max_examples=300, deadline=None)
@given(_population_and_k(), st.integers(0, 2 ** 32))
def test_sample_indices_is_random_sample_of_a_range(n_k, seed):
    """The helper both view paths draw through returns what
    ``rng.sample(range(n), k)`` returns and leaves ``rng`` in the same
    state, on both sides of ``sample``'s pool/set switch."""
    n, k = n_k
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    assert sample_indices(got_rng, n, k) == want_rng.sample(range(n), k)
    assert got_rng.getstate() == want_rng.getstate()


@pytest.mark.parametrize("n", [6, 22, 86, 300])
@pytest.mark.parametrize("k", [2, 7, 21])
@pytest.mark.parametrize("exclude", [None, {1003}, {1000, 1006}])
def test_sample_of_many_is_random_sample(n, k, exclude):
    """``view.sample(k, rng)`` for ``k > 1`` — shared or private, filtered
    or not — returns what ``rng.sample(candidates, k)`` returns and
    leaves ``rng`` in the same state."""
    ids = [1000 + 3 * i for i in range(n + 1)]
    for owner in (ids[0], ids[n // 2], ids[-1]):
        candidates = [m for m in ids
                      if m != owner and not (exclude and m in exclude)]
        roster = Roster()
        roster.ids.extend(ids)
        for view in (LocalView(owner, roster=roster), LocalView(owner, ids)):
            for seed in range(5):
                got_rng, want_rng = random.Random(seed), random.Random(seed)
                want = (list(candidates) if k >= len(candidates)
                        else want_rng.sample(candidates, k))
                assert view.sample(k, got_rng, exclude) == want
                assert got_rng.getstate() == want_rng.getstate()


class TestSharedView:
    """A view onto a :class:`Roster` (what a directory issues)."""

    def roster(self, ids):
        roster = Roster()
        roster.ids.extend(sorted(ids))
        return roster

    def test_reads_the_roster_minus_the_owner(self):
        roster = self.roster([2, 4, 6, 8])
        view = LocalView(4, roster=roster)
        assert len(view) == 3 and 4 not in view and 6 in view and 5 not in view
        assert view.members() == {2, 6, 8}
        roster.ids.append(10)
        assert 10 in view and len(view) == 4

    def test_members_and_roster_together_are_rejected(self):
        with pytest.raises(ValueError):
            LocalView(1, [2, 3], roster=self.roster([1, 2, 3]))

    def test_owner_off_the_roster_hides_nothing(self):
        view = LocalView(5, roster=self.roster([2, 4, 6]))
        assert len(view) == 3
        assert view.sample(3, random.Random(1)) == [2, 4, 6]
        private = LocalView(5, [2, 4, 6])
        assert view.sample(2, random.Random(1)) == private.sample(2, random.Random(1))

    def test_noop_mutations_do_not_diverge(self):
        roster = self.roster(range(10))
        view = LocalView(3, roster=roster)
        view.add(3)
        view.add(7)
        view.remove(3)
        view.remove(42)
        assert roster.diverged == [] and view._members is None

    def test_first_real_mutation_diverges_once(self):
        roster = self.roster(range(10))
        removed, added = LocalView(3, roster=roster), LocalView(4, roster=roster)
        removed.remove(7)
        added.add(42)
        assert roster.diverged == [removed, added]
        assert removed.members() == set(range(10)) - {3, 7}
        assert added.members() == (set(range(10)) | {42}) - {4}
        removed.remove(8)
        assert roster.diverged == [removed, added]
        roster.ids.append(11)  # a diverged view no longer reads the roster
        assert 11 not in removed and 11 in LocalView(5, roster=roster)

    def test_a_registration_below_the_owner_moves_its_cached_index(self):
        """The owner's roster index is cached per view; a later
        registration below the owner shifts it and must be seen."""
        roster = self.roster(range(10, 30))
        shared = LocalView(20, roster=roster)
        shared.sample(1, random.Random(0))  # caches the owner's index
        insort(roster.ids, 3)
        private = LocalView(20, roster.ids)
        r1, r2 = random.Random(1), random.Random(1)
        for _ in range(200):
            assert shared.sample(1, r1) == private.sample(1, r2)
        assert r1.getstate() == r2.getstate()

    @pytest.mark.parametrize("owner", [300, 317, 399])
    @pytest.mark.parametrize("k", [1, 5, 7, 40, 98, 99, 150])
    def test_samples_like_a_private_view(self, owner, k):
        ids = range(300, 400)
        shared, private = LocalView(owner, roster=self.roster(ids)), LocalView(owner, ids)
        for exclude in (None, {301, 350, owner}):
            r1, r2 = random.Random(k), random.Random(k)
            assert shared.sample(k, r1, exclude) == private.sample(k, r2, exclude)
            assert r1.getstate() == r2.getstate()


class TestUniformSelector:
    def test_select_delegates_to_view(self):
        view = LocalView(owner=0, members=range(1, 30))
        selector = UniformSelector(random.Random(3))
        chosen = selector.select(view, 7)
        assert len(chosen) == 7
        assert len(set(chosen)) == 7


class TestCapabilityBiasedSelector:
    def capability(self, node_id):
        return 3000.0 if node_id < 5 else 100.0

    def test_bias_prefers_rich_nodes(self):
        view = LocalView(owner=99, members=range(0, 50))
        selector = CapabilityBiasedSelector(random.Random(5), self.capability, bias=2.0)
        rich_picks = 0
        for _ in range(300):
            chosen = selector.select(view, 3)
            rich_picks += sum(1 for c in chosen if c < 5)
        uniform_expectation = 300 * 3 * (5 / 50)
        assert rich_picks > 2 * uniform_expectation

    def test_bias_zero_is_uniform(self):
        view = LocalView(owner=99, members=range(0, 50))
        selector = CapabilityBiasedSelector(random.Random(5), self.capability, bias=0.0)
        chosen = selector.select(view, 10)
        assert len(set(chosen)) == 10

    def test_select_all_returns_everything(self):
        view = LocalView(owner=99, members=[1, 2, 3])
        selector = CapabilityBiasedSelector(random.Random(5), self.capability)
        assert sorted(selector.select(view, 5)) == [1, 2, 3]

    def test_no_duplicates(self):
        view = LocalView(owner=99, members=range(0, 20))
        selector = CapabilityBiasedSelector(random.Random(6), self.capability, bias=1.0)
        for _ in range(50):
            chosen = selector.select(view, 8)
            assert len(chosen) == len(set(chosen))

    def test_negative_bias_rejected(self):
        with pytest.raises(ValueError):
            CapabilityBiasedSelector(random.Random(1), self.capability, bias=-1.0)
