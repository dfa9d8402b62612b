"""Unit tests for latency and loss models."""

import hashlib
import json
import math
import random
import statistics
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.latency import (
    ConstantLatency,
    PairwiseLatency,
    PerPairLatency,
)
from repro.net.loss import BernoulliLoss, NoLoss, PerPairLoss
from repro.sim.rng import (GOLDEN_GAMMA, derive_seed, link_draw, link_stream,
                           splitmix64, stream_head)


class TestLatencyModels:
    def test_constant(self):
        model = ConstantLatency(0.08)
        assert model.sample(1, 2) == 0.08

    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLatency(-0.1)

    # PairwiseLatency (the default model) draws each pair's stable base
    # from a lognormal around ``median_base``, clamped to ``floor``.
    def test_lognormal_positive_and_floored(self):
        model = PairwiseLatency(random.Random(2), sigma=1.5, jitter=0.0,
                                floor=0.01)
        samples = [model.sample(0, b) for b in range(1, 501)]
        assert min(samples) == 0.01
        assert all(s >= 0.01 for s in samples)

    def test_lognormal_median_roughly_respected(self):
        model = PairwiseLatency(random.Random(3), median_base=0.05, sigma=0.5,
                                jitter=0.0, floor=0.0001)
        samples = sorted(model.base(0, b) for b in range(1, 2001))
        median = samples[len(samples) // 2]
        assert 0.04 < median < 0.06

    def test_pairwise_base_stable_and_symmetric(self):
        model = PairwiseLatency(random.Random(4), jitter=0.0)
        assert model.base(1, 2) == model.base(1, 2)
        assert model.base(1, 2) == model.base(2, 1)
        assert model.sample(1, 2) == model.base(1, 2)

    def test_pairwise_pairs_differ(self):
        model = PairwiseLatency(random.Random(5), jitter=0.0)
        bases = {model.base(0, i) for i in range(1, 20)}
        assert len(bases) > 10

    def test_pairwise_jitter_added(self):
        model = PairwiseLatency(random.Random(6), jitter=0.02)
        base = model.base(1, 2)
        samples = [model.sample(1, 2) for _ in range(100)]
        assert all(base <= s <= base + 0.02 for s in samples)
        assert len(set(samples)) > 1

    @pytest.mark.parametrize("build", [
        lambda **kw: PairwiseLatency(random.Random(1), **kw),
        lambda **kw: PerPairLatency(1, **kw),
    ], ids=["shared", "per-pair"])
    def test_pairwise_models_validate_alike(self, build):
        with pytest.raises(ValueError, match="median"):
            build(median_base=0.0)
        with pytest.raises(ValueError, match="jitter"):
            build(jitter=-0.01)
        assert build(jitter=0.0).sample(1, 2) == build(jitter=0.0).base(1, 2)


class _RefPairwiseLatency:
    """``PairwiseLatency`` as it drew through ``random.lognormvariate``."""

    def __init__(self, rng, median_base, sigma, jitter, floor):
        self._rng = rng
        self.sigma = sigma
        self.jitter = jitter
        self.floor = floor
        self._mu = math.log(median_base)
        self._bases = {}

    def base(self, src, dst):
        key = (src, dst) if src <= dst else (dst, src)
        if key not in self._bases:
            self._bases[key] = max(
                self.floor, self._rng.lognormvariate(self._mu, self.sigma))
        return self._bases[key]

    def sample(self, src, dst):
        jitter = self.jitter * self._rng.random() if self.jitter > 0 else 0.0
        return self.base(src, dst) + jitter


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32),
       sigma=st.sampled_from([0.0, 0.6, 1.5, 4.0]),
       jitter=st.sampled_from([0.0, 0.01]),
       floor=st.sampled_from([0.0, 0.002, 0.05]),
       ops=st.lists(st.tuples(st.booleans(), st.integers(0, 6),
                              st.integers(0, 6)), max_size=40))
def test_inline_base_draw_is_lognormvariate(seed, sigma, jitter, floor, ops):
    """A new pair's base, drawn by ``sample`` or ``base``, is the value
    ``rng.lognormvariate`` gives (floored), and leaves the shared stream
    in the same state — rejected Kinderman–Monahan tries included."""
    model = PairwiseLatency(random.Random(seed), median_base=0.05,
                            sigma=sigma, jitter=jitter, floor=floor)
    reference = _RefPairwiseLatency(random.Random(seed), 0.05, sigma,
                                    jitter, floor)
    for sampled, src, dst in ops:
        if sampled:
            assert model.sample(src, dst) == reference.sample(src, dst)
        else:
            assert model.base(src, dst) == reference.base(src, dst)
        assert model._rng.getstate() == reference._rng.getstate()


# ----------------------------------------------------------------------
# helpers for the per-link stream tests
# ----------------------------------------------------------------------
def _chi_square_uniform(values, buckets=20):
    counts = [0] * buckets
    for value in values:
        counts[int(value * buckets)] += 1
    expected = len(values) / buckets
    return sum((count - expected) ** 2 / expected for count in counts)


#: 99.9th percentile of chi-square with 19 degrees of freedom.
CHI_SQUARE_19_DOF = 43.82


def _max_lagged_correlation(xs, ys, lags=range(-3, 4)):
    """Largest |Pearson r| between xs and ys shifted by a few positions —
    two counter streams that overlapped would show as r = 1 at a lag."""
    worst = 0.0
    for lag in lags:
        a = xs[max(lag, 0):len(xs) + min(lag, 0)]
        b = ys[max(-lag, 0):len(ys) + min(-lag, 0)]
        worst = max(worst, abs(statistics.correlation(a, b)))
    return worst


def _retained_bytes_per_link(build, links):
    """tracemalloc growth per link while the model behind ``build()``'s
    bound method serves each of ``links`` once; returns (bytes per link,
    the model)."""
    started_here = not tracemalloc.is_tracing()
    if started_here:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call = build()
        for src, dst in links:
            call(src, dst)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started_here:
            tracemalloc.stop()
    return grown / len(links), call.__self__


def _holds_generator(model):
    """Does any slot of ``model`` hold (or map to) a random.Random?"""
    for name in type(model).__slots__:
        value = getattr(model, name)
        values = list(value.values()) if isinstance(value, dict) else [value]
        if any(isinstance(v, random.Random) for v in values):
            return True
    return False


#: Every directed link of a 101-node clique (10,100 of them); the ids sit
#: beyond CPython's small-int cache and exist before tracing starts, as a
#: simulation's node ids do.
CLIQUE_LINKS = [(a, b) for a in range(300, 401) for b in range(300, 401)
                if a != b]


#: ``PerPairLatency(2024)`` over TestPerPairLatency.LINKS, then the first
#: two links again; ``PerPairLoss(2024, 0.5)``: 16 trials on each of
#: (0, 1), (1, 0), (7, 3).
PINNED_LATENCY = [0.08623987537082323, 0.08936899553162055,
                  0.07500785154052497, 0.031913775952223056,
                  0.032564894648326265, 0.08756530144785123,
                  0.08442234709325179]
PINNED_LOSS = "110110101011010110000010011111100001010011100110"

#: Node ids for the link-id tests: a few small ones (so links repeat and
#: run both ways) and the edges of the 32-bit id space.
_NODE_IDS = st.one_of(st.integers(0, 4),
                      st.sampled_from([255, 256, 2 ** 16, 2 ** 31,
                                       2 ** 32 - 2, 2 ** 32 - 1]))


class _RefPerPairLatency:
    """``PerPairLatency`` as it was before links had integer ids: tuple
    keys, and every draw through ``link_stream`` + ``splitmix64``.  The
    reference the integer-keyed model must be bit-identical to."""

    def __init__(self, seed, median_base=0.05, sigma=0.6, jitter=0.01,
                 floor=0.002):
        self.sigma = sigma
        self.jitter = jitter
        self.floor = floor
        self._mu = math.log(median_base)
        self._bases = {}
        self._base_key = derive_seed(seed, "base")
        self._jitter_key = derive_seed(seed, "jitter")
        self._jitter_states = {}

    def base(self, src, dst):
        pair = (src, dst) if src <= dst else (dst, src)
        if pair not in self._bases:
            state, u1 = splitmix64(link_stream(self._base_key, *pair))
            _, u2 = splitmix64(state)
            normal = (math.sqrt(-2.0 * math.log(1.0 - u1))
                      * math.cos(2.0 * math.pi * u2))
            self._bases[pair] = max(
                self.floor, math.exp(self._mu + self.sigma * normal))
        return self._bases[pair]

    def sample(self, src, dst):
        base = self.base(src, dst)
        if self.jitter <= 0:
            return base
        state = self._jitter_states.get((src, dst))
        if state is None:
            state = link_stream(self._jitter_key, src, dst)
        self._jitter_states[(src, dst)], u = splitmix64(state)
        return base + self.jitter * u


class _RefPerPairLoss:
    """``PerPairLoss`` as it was before links had integer ids."""

    def __init__(self, seed, rate):
        self.rate = rate
        self._key = derive_seed(seed, "loss")
        self._states = {}

    def is_lost(self, src, dst):
        state = self._states.get((src, dst))
        if state is None:
            state = link_stream(self._key, src, dst)
        self._states[(src, dst)], u = splitmix64(state)
        return u < self.rate


class TestLinkStreams:
    """The counter-based generator under the per-pair models."""

    def test_is_splitmix64(self):
        # First outputs of the reference SplitMix64 seeded with 0.
        reference = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                     0x06C45D188009454F]
        state = 0
        for k, output in enumerate(reference, start=1):
            state, u = splitmix64(state)
            assert state == k * GOLDEN_GAMMA % 2 ** 64
            assert u == (output >> 11) / 2 ** 53

    def test_state_is_one_bounded_int(self):
        state = link_stream(2 ** 64 - 1, 999, 998)
        for _ in range(1000):
            state, u = splitmix64(state)
            assert type(state) is int and 0 <= state < 2 ** 64
            assert 0.0 <= u < 1.0

    def test_link_states_are_distinct_and_keyed(self):
        states = {link_stream(17, a, b) for a in range(60) for b in range(60)}
        assert len(states) == 3600
        assert link_stream(17, 1, 2) != link_stream(18, 1, 2)
        assert link_stream(17, 1, 2) != link_stream(17, 2, 1)

    @settings(max_examples=300, deadline=None)
    @given(key=st.integers(0, 2 ** 64 - 1), src=_NODE_IDS, dst=_NODE_IDS,
           draws=st.integers(1, 6))
    def test_draw_functions_are_link_stream_plus_splitmix64(self, key, src,
                                                           dst, draws):
        link = (src << 32) + dst
        state = link_stream(key, src, dst)
        head = []
        states = {}
        for _ in range(draws):
            state, u = splitmix64(state)
            head.append(u)
            assert link_draw(states, key, link) == u
            assert states == {link: state}
        _, u = splitmix64(state)
        head.append(u)
        assert stream_head(key, link) == tuple(head[:2])


class TestPerPairLatency:
    """The order-independent latency model sharded execution relies on."""

    LINKS = [(0, 1), (1, 0), (0, 2), (7, 3), (3, 7)]

    def test_interleaving_and_creation_order_change_nothing(self):
        forward = PerPairLatency(21)
        expected = {link: [forward.sample(*link) for _ in range(40)]
                    for link in self.LINKS}
        permuted = PerPairLatency(21)
        for link in reversed(self.LINKS):  # bases drawn in another order
            permuted.base(*link)
        replayed = {link: [] for link in self.LINKS}
        order = random.Random(4)
        pending = [link for link in self.LINKS for _ in range(40)]
        order.shuffle(pending)  # an arbitrary global interleaving
        for link in pending:
            replayed[link].append(permuted.sample(*link))
        assert replayed == expected

    def test_kth_draw_does_not_depend_on_other_links(self):
        alone = PerPairLatency(22)
        kth = [alone.sample(5, 6) for _ in range(10)][9]
        busy = PerPairLatency(22)
        for k in range(9):
            busy.sample(5, 6)
            for other in range(10, 60):
                busy.sample(other, 6)
        assert busy.sample(5, 6) == kth

    def test_base_is_symmetric_jitter_is_directed(self):
        model = PerPairLatency(23, jitter=0.01)
        assert model.base(1, 2) == model.base(2, 1)
        there = [model.sample(1, 2) for _ in range(20)]
        back = [model.sample(2, 1) for _ in range(20)]
        assert there != back
        base = model.base(1, 2)
        assert all(base <= s < base + 0.01 for s in there + back)

    @pytest.mark.parametrize("draws", ["one-link", "first-of-each-link"])
    def test_jitter_is_uniform(self, draws):
        """Both along one link's stream and across the first draws of
        many links — at 1k nodes nearly every draw is a link's first."""
        model = PerPairLatency(24, jitter=1.0, floor=0.0)
        if draws == "one-link":
            base = model.base(0, 1)
            us = [model.sample(0, 1) - base for _ in range(20_000)]
        else:
            us = [model.sample(a, b) - model.base(a, b)
                  for a in range(100) for b in range(1000, 1200)]
        assert len(us) == 20_000 and all(0.0 <= u < 1.0 for u in us)
        assert statistics.fmean(us) == pytest.approx(0.5, abs=0.0075)
        assert statistics.pvariance(us) == pytest.approx(1 / 12, abs=0.003)
        assert _chi_square_uniform(us) < CHI_SQUARE_19_DOF

    def test_base_is_lognormal(self):
        model = PerPairLatency(25, median_base=0.05, sigma=0.6, floor=1e-9)
        logs = [math.log(model.base(a, b))
                for a in range(50) for b in range(1000, 1100)]
        assert len(logs) == 5000
        assert math.exp(statistics.median(logs)) == pytest.approx(0.05,
                                                                  rel=0.04)
        assert statistics.pstdev(logs) == pytest.approx(0.6, abs=0.025)
        # Symmetric in log space: the tails are as heavy on both sides.
        mu = math.log(0.05)
        beyond = sum(abs(x - mu) > 2 * 0.6 for x in logs) / len(logs)
        assert beyond == pytest.approx(0.0455, abs=0.01)

    def test_floor_clamps_the_base(self):
        model = PerPairLatency(26, median_base=0.05, floor=0.04, jitter=0.0)
        bases = [model.sample(0, b) for b in range(1, 400)]
        assert min(bases) == 0.04
        assert 0.2 < sum(b == 0.04 for b in bases) / len(bases) < 0.5

    def test_adjacent_links_are_uncorrelated(self):
        model = PerPairLatency(27, jitter=1.0, floor=0.0)

        def stream(a, b, n=10_000):
            base = model.base(a, b)
            return [model.sample(a, b) - base for _ in range(n)]

        here = stream(40, 41)
        for neighbour in ((40, 42), (41, 41), (41, 40)):
            assert _max_lagged_correlation(here, stream(*neighbour)) < 0.05

    def test_adjacent_pairs_have_unrelated_bases(self):
        model = PerPairLatency(28, floor=0.0)
        row = [math.log(model.base(9, b)) for b in range(10, 4010)]
        assert abs(statistics.correlation(row[:-1], row[1:])) < 0.05

    def test_first_values_are_pinned(self):
        """The derivation is part of every per-pair scenario's identity
        (``scenario_key``'s ``per_pair_streams``): moving these values
        needs that version bumped, never a silent change."""
        model = PerPairLatency(2024)
        drawn = [model.sample(*link) for link in self.LINKS + self.LINKS[:2]]
        assert drawn == pytest.approx(PINNED_LATENCY, rel=1e-12)

    def test_fresh_links_retain_one_int_each(self):
        per_link, model = _retained_bytes_per_link(
            lambda: PerPairLatency(29).sample, CLIQUE_LINKS)
        assert per_link < 200
        assert not _holds_generator(model)
        assert all(type(state) is int
                   for state in model._jitter_states.values())
        assert len(model._jitter_states) == len(CLIQUE_LINKS)


class TestLossModels:
    def test_no_loss(self):
        assert NoLoss().is_lost(0, 1) is False

    def test_bernoulli_rate_zero_and_one(self):
        rng = random.Random(7)
        assert not any(BernoulliLoss(rng, 0.0).is_lost(0, 1) for _ in range(100))
        assert all(BernoulliLoss(rng, 1.0).is_lost(0, 1) for _ in range(100))

    def test_bernoulli_rate_statistical(self):
        model = BernoulliLoss(random.Random(8), 0.2)
        losses = sum(model.is_lost(0, 1) for _ in range(5000))
        assert 800 < losses < 1200

    def test_bernoulli_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            BernoulliLoss(random.Random(1), 1.5)


class TestPerPairLoss:
    """The order-independent loss model sharded execution relies on."""

    def test_send_order_does_not_change_decisions(self):
        """The property sharding needs: drop decisions are a pure
        function of each directed link's own send sequence, so two
        executions that interleave links differently (a serial run vs a
        sharded one) draw identical per-link loss patterns."""
        links = [(0, 1), (0, 2), (3, 1), (2, 0)]
        forward = PerPairLoss(seed=11, rate=0.3)
        decisions = {link: [forward.is_lost(*link) for _ in range(50)]
                     for link in links}
        permuted = PerPairLoss(seed=11, rate=0.3)
        replayed = {link: [] for link in links}
        for round_ in range(50):
            for link in reversed(links):  # a different global interleaving
                replayed[link].append(permuted.is_lost(*link))
        assert replayed == decisions

    def test_links_are_independent_and_directed(self):
        model = PerPairLoss(seed=12, rate=0.5)
        a = [model.is_lost(0, 1) for _ in range(64)]
        b = [model.is_lost(1, 0) for _ in range(64)]
        c = [model.is_lost(0, 2) for _ in range(64)]
        assert a != b  # direction matters: (0,1) and (1,0) are distinct
        assert a != c

    def test_creation_order_does_not_change_decisions(self):
        links = [(0, 1), (0, 2), (3, 1), (2, 0)]
        forward = PerPairLoss(seed=11, rate=0.3)
        first = {link: forward.is_lost(*link) for link in links}
        backward = PerPairLoss(seed=11, rate=0.3)
        assert {link: backward.is_lost(*link)
                for link in reversed(links)} == first

    def test_rate_statistical(self):
        """Within three sigma, along one link's stream and across the
        first trials of many links."""
        model = PerPairLoss(seed=13, rate=0.2)
        sigma = math.sqrt(0.2 * 0.8 / 20_000)
        for trials in ([model.is_lost(0, 1) for _ in range(20_000)],
                       [model.is_lost(a, b)
                        for a in range(100) for b in range(1000, 1200)]):
            assert sum(trials) / 20_000 == pytest.approx(0.2, abs=3 * sigma)

    def test_adjacent_links_are_uncorrelated(self):
        model = PerPairLoss(seed=14, rate=0.5)

        def stream(a, b):
            return [float(model.is_lost(a, b)) for _ in range(10_000)]

        here = stream(40, 41)
        for neighbour in ((40, 42), (41, 41), (41, 40)):
            assert _max_lagged_correlation(here, stream(*neighbour)) < 0.05

    def test_latency_and_loss_streams_of_a_link_differ(self):
        """One seed for both models must not make a link's jitter predict
        its drops (the runner derives two seeds; direct callers may not)."""
        latency = PerPairLatency(15, jitter=1.0, floor=0.0)
        loss = PerPairLoss(seed=15, rate=0.5)
        base = latency.base(0, 1)
        jitter = [latency.sample(0, 1) - base for _ in range(10_000)]
        drops = [float(loss.is_lost(0, 1)) for _ in range(10_000)]
        assert [u < 0.5 for u in jitter] != [d == 1.0 for d in drops]
        assert _max_lagged_correlation(jitter, drops) < 0.05

    def test_first_values_are_pinned(self):
        model = PerPairLoss(seed=2024, rate=0.5)
        bits = "".join(str(int(model.is_lost(*link)))
                       for link in [(0, 1), (1, 0), (7, 3)]
                       for _ in range(16))
        assert bits == PINNED_LOSS

    def test_fresh_links_retain_one_int_each(self):
        per_link, model = _retained_bytes_per_link(
            lambda: PerPairLoss(seed=16, rate=0.03).is_lost, CLIQUE_LINKS)
        assert per_link < 200
        assert not _holds_generator(model)
        assert all(type(state) is int for state in model._states.values())

    def test_rate_zero_and_one(self):
        assert not any(PerPairLoss(seed=1, rate=0.0).is_lost(0, 1)
                       for _ in range(100))
        assert all(PerPairLoss(seed=1, rate=1.0).is_lost(0, 1)
                   for _ in range(100))

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            PerPairLoss(seed=1, rate=1.5)


class TestIntegerLinkIds:
    """Both per-pair models key links by ``(src << 32) + dst`` and draw
    through ``link_draw`` / ``stream_head``: value for value, the
    tuple-keyed reference's draws."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 63), jitter=st.sampled_from([0.0, 0.01]),
           rate=st.sampled_from([0.03, 0.5]),
           links=st.lists(st.tuples(_NODE_IDS, _NODE_IDS), min_size=1,
                          max_size=30))
    def test_models_match_the_tuple_keyed_reference(self, seed, jitter, rate,
                                                   links):
        latency = PerPairLatency(seed, jitter=jitter)
        ref_latency = _RefPerPairLatency(seed, jitter=jitter)
        loss = PerPairLoss(seed, rate)
        ref_loss = _RefPerPairLoss(seed, rate)
        # Every link, then each one the other way round, then again.
        for src, dst in links + [(dst, src) for src, dst in links] + links:
            assert (latency.sample(src, dst).hex()
                    == ref_latency.sample(src, dst).hex())
            assert (latency.base(dst, src).hex()
                    == ref_latency.base(dst, src).hex())
            assert loss.is_lost(src, dst) == ref_loss.is_lost(src, dst)
        assert len(latency._bases) == len(ref_latency._bases)
        assert len(latency._jitter_states) == len(ref_latency._jitter_states)
        assert len(loss._states) == len(ref_loss._states)


class TestSharedLossGoldenPin:
    """The historical shared-stream loss model must not move.

    ``loss_rng="per-pair"`` is a new, opt-in mode; the default
    ``"shared"`` mode (one stream consumed in global send order) is
    pinned here so the per-pair plumbing provably left it untouched.
    """

    def test_default_mode_traffic_is_bit_identical(self):
        from repro.experiments.runner import run_scenario
        from repro.metrics.summary import standard_bundle, summarize
        from repro.workloads.scenario import ScenarioConfig

        config = ScenarioConfig(protocol="heap", n_nodes=40, duration=2.0,
                                drain=4.0, seed=3, loss_rate=0.1)
        assert config.loss_rng == "shared"
        result = run_scenario(config)
        assert result.net.stats.lost == 1333
        assert result.net.stats.sent == 13713
        blob = json.dumps(summarize(result, standard_bundle()),
                          sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "7fe2e94f860d71fa2b592d29b280af0f1b5bac140354067438aa7bc728eb1402")
