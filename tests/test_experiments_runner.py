"""Integration tests: full scenario runs through the experiment runner.

These use small populations and short streams so the whole file stays
fast, but they exercise every layer together — simulator, network,
membership, protocols, source, churn, metrics.
"""

import gc
import math

import pytest

from repro import ScenarioConfig, run_scenario
from repro.adversary import AttackMix
from repro.analysis.stats import mean
from repro.experiments.runner import build_scenario
from repro.metrics import (
    jitter_free_fraction_by_class,
    utilization_by_class,
    window_delivery_over_time,
)
from repro.metrics.lag import per_node_lag_jitter_free
from repro.sim.engine import Lane
from repro.sim.rng import RngRegistry
from repro.workloads import MS_691, REF_691, UNCONSTRAINED, CatastrophicFailure

FAST = dict(n_nodes=40, duration=8.0, drain=15.0, seed=7)


@pytest.fixture(scope="module")
def heap_result():
    return run_scenario(ScenarioConfig(protocol="heap", distribution=REF_691, **FAST))


@pytest.fixture(scope="module")
def standard_result():
    return run_scenario(ScenarioConfig(protocol="standard", distribution=REF_691, **FAST))


class TestBasicRun:
    def test_all_packets_published(self, heap_result):
        config = heap_result.config
        assert heap_result.total_packets == config.total_packets
        assert len(heap_result.windows()) == config.total_packets // 110

    def test_stream_fully_disseminated_offline(self, heap_result):
        """Paper footnote: 'when running simulations without message loss,
        100% of the nodes received the full stream.'  Infect-and-die gossip
        may miss an individual packet with tiny probability — that is what
        the FEC windows absorb — so the stream-level assertion is that
        every window decodes offline at every node."""
        total = heap_result.total_packets
        analyzer = heap_result.analyzer()
        windows = heap_result.windows()
        for node_id in heap_result.receiver_ids():
            assert heap_result.log_of(node_id).delivery_ratio(total) >= 0.99
            assert analyzer.jitter_fraction(
                heap_result.log_of(node_id), windows, lag=float("inf")) == 0.0

    def test_no_duplicate_deliveries(self, heap_result):
        for node_id in heap_result.receiver_ids():
            assert heap_result.log_of(node_id).duplicates == 0

    def test_labels_and_capacities_consistent(self, heap_result):
        for node_id in heap_result.receiver_ids():
            label = heap_result.label_of(node_id)
            cls = REF_691.class_of(heap_result.capacity_of(node_id))
            assert cls is not None and cls.label == label

    def test_class_labels_sorted_poorest_first(self, heap_result):
        assert heap_result.class_labels() == ["256kbps", "768kbps", "2Mbps"]

    def test_source_excluded_from_receivers(self, heap_result):
        assert 0 not in heap_result.receiver_ids()

    def test_deterministic_given_seed(self):
        config = ScenarioConfig(protocol="heap", distribution=REF_691,
                                n_nodes=20, duration=4.0, drain=8.0, seed=11)
        a = run_scenario(config)
        b = run_scenario(config)
        for node_id in a.receiver_ids():
            assert dict(a.log_of(node_id).items()) == dict(b.log_of(node_id).items())

    def test_different_seeds_differ(self):
        base = dict(protocol="heap", distribution=REF_691, n_nodes=20,
                    duration=4.0, drain=8.0)
        a = run_scenario(ScenarioConfig(seed=1, **base))
        b = run_scenario(ScenarioConfig(seed=2, **base))
        logs_a = dict(a.log_of(1).items())
        logs_b = dict(b.log_of(1).items())
        assert logs_a != logs_b


class TestProtocolComparison:
    def test_heap_equalizes_utilization(self, heap_result, standard_result):
        heap_util = utilization_by_class(heap_result)
        std_util = utilization_by_class(standard_result)
        heap_spread = max(heap_util.values()) - min(heap_util.values())
        std_spread = max(std_util.values()) - min(std_util.values())
        assert heap_spread < std_spread

    def test_standard_overloads_poor_class(self, standard_result):
        util = utilization_by_class(standard_result)
        assert util["256kbps"] > util["2Mbps"]

    def test_heap_lag_no_worse_than_standard(self, heap_result, standard_result):
        heap_lag = mean(per_node_lag_jitter_free(heap_result).values())
        std_lag = mean(per_node_lag_jitter_free(standard_result).values())
        assert heap_lag <= std_lag * 1.25

    def test_heap_fanout_ordering_follows_capability(self, heap_result):
        by_label = {}
        for node_id in heap_result.receiver_ids():
            by_label.setdefault(heap_result.label_of(node_id), []).append(
                heap_result.nodes[node_id].fanout)
        assert mean(by_label["2Mbps"]) > mean(by_label["768kbps"]) > mean(by_label["256kbps"])

    def test_source_advertises_average_capability(self, heap_result):
        assert heap_result.nodes[0].capability_bps == pytest.approx(
            REF_691.average_bps())


class TestUnconstrained:
    def test_unconstrained_low_lag(self):
        result = run_scenario(ScenarioConfig(
            protocol="standard", distribution=UNCONSTRAINED, **FAST))
        lags = per_node_lag_jitter_free(result)
        assert all(math.isfinite(lag) for lag in lags.values())
        assert mean(lags.values()) < 2.0


class TestChurn:
    @pytest.fixture(scope="class")
    def churn_result(self):
        return run_scenario(ScenarioConfig(
            protocol="heap", distribution=REF_691, n_nodes=40,
            duration=20.0, drain=20.0, seed=5,
            churn=CatastrophicFailure(fraction=0.25, at_time=8.0)))

    def test_victims_recorded(self, churn_result):
        victims = churn_result.config.churn.victims
        assert len(victims) == round(0.25 * 40)
        assert 0 not in victims
        assert set(victims) == set(churn_result.crash_times)

    def test_survivors_keep_receiving(self, churn_result):
        series = window_delivery_over_time(churn_result, lag=15.0)
        # Windows published well after the failure should reach ~all of
        # the surviving 75% of nodes (75% of the initial population).
        tail = [frac for _, publish_time, frac in series if publish_time > 12.0]
        assert tail
        assert min(tail) > 65.0

    def test_crashed_nodes_stop_receiving(self, churn_result):
        victim = churn_result.config.churn.victims[0]
        crash_time = churn_result.crash_times[victim]
        log = churn_result.log_of(victim)
        last_delivery = max(t for _, t in log.items())
        assert last_delivery <= crash_time

    def test_receiver_ids_excludes_victims_by_default(self, churn_result):
        victims = set(churn_result.config.churn.victims)
        assert not victims & set(churn_result.receiver_ids())
        assert victims <= set(churn_result.receiver_ids(include_crashed=True))

    @pytest.mark.parametrize("overrides, notified", [
        (dict(), True),
        (dict(membership="cyclon"), False),
        (dict(protocol="tree"), False),
    ], ids=["directory", "cyclon", "tree"])
    def test_crash_notifications_only_where_views_read_them(
            self, monkeypatch, overrides, notified):
        """Only gossip on full-membership views draws detection delays
        and queues one notification per survivor; Cyclon nodes and the
        tree read no directory view, so a crash changes the truth alone."""
        streams, queued = [], []
        stream, post_many = RngRegistry.stream, Lane.post_many

        def record_stream(registry, name):
            streams.append(name)
            return stream(registry, name)

        def record_posts(lane, entries):
            entries = list(entries)
            queued.extend(entries)
            post_many(lane, entries)

        monkeypatch.setattr(RngRegistry, "stream", record_stream)
        monkeypatch.setattr(Lane, "post_many", record_posts)
        n_nodes = 20
        result = run_scenario(ScenarioConfig(
            distribution=REF_691, n_nodes=n_nodes, duration=3.0, drain=3.0,
            seed=5, churn=CatastrophicFailure(fraction=0.2, at_time=1.0),
            mean_detection_delay=1.0, **overrides))
        victims = len(result.crash_times)
        assert victims == 4
        assert ("detection" in streams) == notified
        # The k-th victim's crash reaches the n - k nodes still alive.
        expected = sum(n_nodes - k for k in range(1, victims + 1))
        assert len(queued) == (expected if notified else 0)


class TestTreeBaseline:
    def test_tree_delivers_without_loss(self):
        result = run_scenario(ScenarioConfig(
            protocol="tree", distribution=UNCONSTRAINED, **FAST))
        total = result.total_packets
        ratios = [result.log_of(n).delivery_ratio(total)
                  for n in result.receiver_ids()]
        assert mean(ratios) == pytest.approx(1.0)

    def test_tree_fragile_under_loss(self):
        lossy = ScenarioConfig(protocol="tree", distribution=UNCONSTRAINED,
                               loss_rate=0.05, **FAST)
        result = run_scenario(lossy)
        total = result.total_packets
        ratios = [result.log_of(n).delivery_ratio(total)
                  for n in result.receiver_ids()]
        # No repair: losses compound down the tree.
        assert mean(ratios) < 0.97
        gossip = run_scenario(ScenarioConfig(
            protocol="heap", distribution=UNCONSTRAINED, loss_rate=0.05, **FAST))
        gossip_ratios = [gossip.log_of(n).delivery_ratio(total)
                         for n in gossip.receiver_ids()]
        assert mean(gossip_ratios) > mean(ratios)


class TestDegradedNodes:
    def test_degraded_fraction_reduces_effective_capacity(self):
        result = run_scenario(ScenarioConfig(
            protocol="heap", distribution=REF_691, degraded_fraction=0.25,
            degraded_factor=0.5, **FAST))
        degraded = [node_id for node_id in result.receiver_ids()
                    if result.net.uplink(node_id).capacity_bps
                    < result.capacity_of(node_id)]
        assert len(degraded) == round(0.25 * 39)


def _unreachable_after(config) -> int:
    """Objects only the cyclic collector could free once ``config`` has
    been built and run with that collector off — the build still held."""
    gc.collect()
    gc.disable()
    try:
        build = build_scenario(config)
        build.sim.run(until=config.end_time)
        found = gc.collect()
    finally:
        gc.enable()
    assert build.sim.events_executed > 0
    return found


class TestRunsLeaveNoCycles:
    """What makes pausing the collector inside ``Simulator.run`` safe:
    everything a build and a run drop is freed by reference counting."""

    @pytest.mark.parametrize("protocol", ["heap", "standard", "tree"])
    def test_no_garbage_cycles(self, protocol):
        assert _unreachable_after(ScenarioConfig(
            protocol=protocol, distribution=REF_691, n_nodes=40,
            duration=2.0, drain=3.0, seed=3)) == 0

    def test_no_garbage_cycles_on_the_adverse_path(self):
        """Partial views, lossy links and retransmission, a catastrophic
        failure mid-stream, the audit and a spam attacker."""
        churn = CatastrophicFailure(0.2, at_time=2.6)
        assert _unreachable_after(ScenarioConfig(
            protocol="heap", distribution=MS_691, n_nodes=60, duration=1.5,
            drain=1.5, membership="cyclon", loss_rate=0.03,
            loss_rng="per-pair", latency_rng="per-pair", audit=True,
            churn=churn, seed=5,
            adversary=AttackMix.single("spam", 0.1,
                                       victim_policy="high-degree"))) == 0
        assert churn.victims

    def test_discovery_garbage_does_not_grow_with_run_length(self):
        """The one exception.  When the stream ends the probers are
        stopped and dropped, and each is a small cycle (prober -> timer
        -> bound ``_probe`` -> prober, plus its ``on_change`` lambda):
        a fixed number of objects per receiver, whatever the run length
        — nothing accumulates while the collector is paused."""
        found = [_unreachable_after(ScenarioConfig(
            protocol="heap", distribution=REF_691, n_nodes=100,
            duration=duration, drain=1.0, capability_discovery=True,
            seed=3)) for duration in (1.0, 2.0, 6.0)]
        assert found[0] == found[1] == found[2]
        assert 0 < found[0] <= 8 * 99 and found[0] % 99 == 0
