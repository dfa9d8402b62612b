"""Golden-trace regression tests for the simulator hot path.

These pin the *exact* summary metrics of two small fig2-style scenarios
(standard gossip at fanout 15 and HEAP at fanout 7, both on the ms-691
distribution).  The pinned values were generated at the time of the
parallel-engine / hot-path overhaul and verified to be bit-identical to
the original seed implementation's output, so they encode the protocol's
behavior independently of how the engine is implemented.  Two more
pin the partial-view path (Cyclon membership with per-pair loss and
latency, a catastrophic failure, the audit and an attack): their event
and datagram counts, total shuffles and the sha256 of the standard
summary bundle.  One pins the same counters on fig 10's path: a
catastrophic failure under the full-membership directory, whose
survivors learn of each crash after a sampled detection delay.  The last
pins them on the tree baseline through the same failure.

If a refactor of the event queue, the network fast path, or the RNG
plumbing changes *any* of these numbers, it changed protocol behavior —
not just performance — and every archived figure silently shifts.  Fix
the refactor, or (for an intentional behavioral change) regenerate the
constants and say so loudly in the commit.

Integer counters are compared exactly; floats with a 1e-9 relative
tolerance (they are deterministic on one platform, but libm differences
across platforms can wiggle the last bits of lognormal draws).
"""

import hashlib
import json

import pytest

from repro.adversary import AttackMix
from repro.analysis.stats import mean
from repro.experiments.runner import build_scenario, run_scenario
from repro.metrics.bandwidth import utilization_by_class
from repro.metrics.jitter import jitter_free_fraction_by_class
from repro.metrics.lag import per_node_lag_jitter_free
from repro.metrics.summary import standard_bundle, summarize
from repro.workloads.churn import CatastrophicFailure
from repro.workloads.distributions import MS_691
from repro.workloads.scenario import ScenarioConfig

APPROX = dict(rel=1e-9)


def _run(protocol: str, fanout: float):
    config = ScenarioConfig(protocol=protocol, n_nodes=40, duration=6.0,
                            drain=12.0, seed=42, distribution=MS_691)
    if fanout != config.gossip.fanout:
        config = config.with_(gossip=config.gossip.__class__(fanout=fanout))
    return run_scenario(config)


@pytest.fixture(scope="module")
def standard_result():
    return _run("standard", 15.0)


@pytest.fixture(scope="module")
def heap_result():
    return _run("heap", 7.0)


class TestStandardGolden:
    """standard gossip, fanout 15, ms-691, 40 nodes, seed 42."""

    def test_event_and_traffic_counters(self, standard_result):
        r = standard_result
        assert r.sim.events_executed == 57520
        assert r.net.stats.sent == 43475
        assert r.net.stats.delivered == 43475
        assert r.net.stats.bytes_sent == 20343420
        assert r.net.stats.bytes_by_kind["serve"] == 17441100

    def test_lag_summary(self, standard_result):
        lags = per_node_lag_jitter_free(standard_result)
        assert mean(lags.values()) == pytest.approx(0.9790508577822078, **APPROX)

    def test_quality_and_bandwidth_by_class(self, standard_result):
        jff = jitter_free_fraction_by_class(standard_result, 10.0)
        assert jff == {"512kbps": 100.0, "1Mbps": 100.0, "3Mbps": 100.0}
        util = utilization_by_class(standard_result)
        assert util["512kbps"] == pytest.approx(75.49241191208965, **APPROX)
        assert util["1Mbps"] == pytest.approx(55.57492574055989, **APPROX)
        assert util["3Mbps"] == pytest.approx(38.68052164713542, **APPROX)

    def test_full_delivery_no_duplicates(self, standard_result):
        r = standard_result
        total = r.total_packets
        delivery = mean(r.log_of(n).delivery_ratio(total)
                        for n in r.receiver_ids())
        assert delivery == 1.0
        assert sum(r.log_of(n).duplicates for n in r.receiver_ids()) == 0


class TestHeapGolden:
    """HEAP, fanout 7, ms-691, 40 nodes, seed 42."""

    def test_event_and_traffic_counters(self, heap_result):
        r = heap_result
        assert r.sim.events_executed == 46472
        assert r.net.stats.sent == 30548
        assert r.net.stats.delivered == 30537
        assert r.net.stats.bytes_sent == 19498880
        assert r.net.stats.bytes_by_kind["serve"] == 17362484

    def test_lag_summary(self, heap_result):
        lags = per_node_lag_jitter_free(heap_result)
        assert mean(lags.values()) == pytest.approx(1.163841312122211, **APPROX)

    def test_heap_equalizes_utilization(self, heap_result):
        util = utilization_by_class(heap_result)
        assert util["512kbps"] == pytest.approx(75.58646153922034, **APPROX)
        assert util["1Mbps"] == pytest.approx(79.88662719726564, **APPROX)
        assert util["3Mbps"] == pytest.approx(82.91965060763889, **APPROX)

    def test_delivery_ratio(self, heap_result):
        r = heap_result
        total = r.total_packets
        delivery = mean(r.log_of(n).delivery_ratio(total)
                        for n in r.receiver_ids())
        assert delivery == pytest.approx(0.9998445998446, **APPROX)
        assert sum(r.log_of(n).duplicates for n in r.receiver_ids()) == 0


# ----------------------------------------------------------------------
# The partial-view path: Cyclon membership under loss, churn and attack.
# ----------------------------------------------------------------------

def _built(config: ScenarioConfig):
    """The run's build, for the pins that read live samplers."""
    build = build_scenario(config)
    build.sim.run(until=config.end_time)
    return build


def _cyclon_run(view_size: int, adversary):
    return _built(ScenarioConfig(
        protocol="heap", n_nodes=40, duration=4.0, drain=4.0, seed=11,
        distribution=MS_691, membership="cyclon", cyclon_view_size=view_size,
        loss_rate=0.03, loss_rng="per-pair", latency_rng="per-pair",
        audit=True, churn=CatastrophicFailure(0.2, at_time=3.0),
        mean_detection_delay=2.0, adversary=adversary))


def _churn_pin(build) -> dict:
    result = build.result()
    stats = result.net.stats
    summary = json.dumps(summarize(result, standard_bundle()), sort_keys=True)
    return {
        "events": result.sim.events_executed,
        "sent": stats.sent,
        "bytes_sent": stats.bytes_sent,
        "delivered": stats.delivered,
        "dropped_dead": stats.dropped_dead,
        "dropped_queue": stats.dropped_queue,
        "lost": stats.lost,
        "wire": stats.wire_summary(),
        "shuffles": sum(s.shuffles_started for s in build.samplers.values()),
        "summary": hashlib.sha256(summary.encode("utf-8")).hexdigest(),
    }


class TestCyclonGolden:
    """HEAP on Cyclon partial views, ms-691, 40 nodes, seed 11: per-pair
    loss and latency, a 20 % catastrophic failure at t=3 s detected after
    2 s on average, and the freerider audit.  Pinned before the views'
    ages became stamps, so the rewrite is held to the same trace."""

    NO_WIRE = {"buffers": 0, "envelopes": 0, "bytes": 0, "control_rows": 0}

    def test_spam(self):
        build = _cyclon_run(16, AttackMix.single("spam", 0.1, 1.0))
        assert _churn_pin(build) == {
            "events": 25308, "sent": 17912, "bytes_sent": 11125644,
            "delivered": 15528, "dropped_dead": 1788, "dropped_queue": 0,
            "lost": 518, "wire": self.NO_WIRE, "shuffles": 344,
            "summary": "391bf0c12222fa593b2e5a8bc02afe226ae6b7c9"
                       "dcbfd3cdb9ac47abf1f1ae1f",
        }

    def test_poisoned_view(self):
        build = _cyclon_run(12, AttackMix.single("poisoned-view", 0.15))
        assert _churn_pin(build) == {
            "events": 22458, "sent": 15402, "bytes_sent": 10700816,
            "delivered": 13453, "dropped_dead": 1474, "dropped_queue": 0,
            "lost": 446, "wire": self.NO_WIRE, "shuffles": 344,
            "summary": "028edde849d14607a1d3f039f6f4128f267655425d"
                       "8af636d02056961992ab51",
        }
        poisoned = sum(stats["entries_poisoned"]
                       for stats in build.result().attacker_stats.values())
        assert poisoned == 222


class TestDirectoryChurnGolden:
    """HEAP on the full-membership directory, ms-691, 40 nodes, seed 11,
    per-pair latency: a 20 % catastrophic failure at t=3 s that every
    survivor's view learns of after 2 s on average."""

    def test_catastrophic_failure(self):
        build = _built(ScenarioConfig(
            protocol="heap", n_nodes=40, duration=4.0, drain=4.0, seed=11,
            distribution=MS_691, latency_rng="per-pair",
            churn=CatastrophicFailure(0.2, at_time=3.0),
            mean_detection_delay=2.0))
        assert len(build.crash_times) == 8
        assert _churn_pin(build) == {
            "events": 24679, "sent": 16465, "bytes_sent": 10504948,
            "delivered": 15599, "dropped_dead": 860, "dropped_queue": 0,
            "lost": 0, "wire": TestCyclonGolden.NO_WIRE, "shuffles": 0,
            "summary": "464df725d4e6f364fd2cb25a06161f690d9bf2c7"
                       "1f5a1814e9c14883fd0d37ee",
        }


class TestTreeChurnGolden:
    """The tree baseline, ms-691, 40 nodes, seed 11, per-pair latency,
    through a 20 % catastrophic failure at t=3 s: the crashed subtrees
    stop forwarding and nothing repairs them."""

    def test_catastrophic_failure(self):
        build = _built(ScenarioConfig(
            protocol="tree", n_nodes=40, duration=4.0, drain=4.0, seed=11,
            distribution=MS_691, latency_rng="per-pair",
            churn=CatastrophicFailure(0.2, at_time=3.0)))
        assert len(build.crash_times) == 8
        assert _churn_pin(build) == {
            "events": 4805, "sent": 6256, "bytes_sent": 8533184,
            "delivered": 3298, "dropped_dead": 1286, "dropped_queue": 0,
            "lost": 0, "wire": TestCyclonGolden.NO_WIRE, "shuffles": 0,
            "summary": "7d8d38d69515281cdd9da1ead24f859c2a2ebbb4"
                       "ae7dc48fab730adca6ee667c",
        }
