"""Integration tests for the runner's optional substrates
(Cyclon membership, capability discovery, degraded nodes, source bias)."""

import math

import pytest

from repro import ScenarioConfig, run_scenario
from repro.analysis.stats import mean
from repro.experiments.runner import build_scenario
from repro.metrics.lag import per_node_lag_jitter_free
from repro.workloads import REF_691

FAST = dict(n_nodes=40, duration=8.0, drain=20.0, seed=11)


def built(config: ScenarioConfig):
    """The run's build, for the tests that read live nodes and samplers."""
    build = build_scenario(config)
    build.sim.run(until=config.end_time)
    return build


class TestCyclonMembership:
    @pytest.fixture(scope="class")
    def build(self):
        return built(ScenarioConfig(protocol="heap", distribution=REF_691,
                                    membership="cyclon", **FAST))

    @pytest.fixture(scope="class")
    def result(self, build):
        return build.result()

    def test_samplers_attached_to_all_nodes(self, build):
        assert set(build.samplers) == set(range(40))

    def test_views_are_partial(self, build):
        sizes = [len(build.nodes[n].view) for n in range(1, 40)]
        assert all(size <= build.config.cyclon_view_size for size in sizes)
        assert mean(sizes) > 5

    def test_dissemination_still_works(self, result):
        lags = per_node_lag_jitter_free(result)
        reached = sum(1 for lag in lags.values() if math.isfinite(lag))
        assert reached >= 0.9 * len(lags)

    def test_shuffle_traffic_present(self, result):
        assert result.net.stats.count_by_kind.get("shuffle-req", 0) > 100


class TestCapabilityDiscovery:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario(ScenarioConfig(protocol="heap",
                                           distribution=REF_691,
                                           capability_discovery=True,
                                           **FAST))

    def test_advertised_capabilities_converge_upwards(self, result):
        # Nodes started at 128 kbps advertised; busy ones grew toward truth.
        ratios = [result.nodes[n].capability_bps / result.capacity_of(n)
                  for n in result.receiver_ids()]
        assert mean(ratios) > 0.4

    def test_source_unaffected(self, result):
        assert result.nodes[0].capability_bps == pytest.approx(
            REF_691.average_bps())

    def test_stream_still_delivered(self, result):
        lags = per_node_lag_jitter_free(result)
        reached = sum(1 for lag in lags.values() if math.isfinite(lag))
        assert reached >= 0.9 * len(lags)

    def test_discovery_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(discovery_initial_bps=0.0)


class TestMembershipValidation:
    def test_unknown_membership_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(membership="carrier-pigeon")

    def test_tiny_cyclon_view_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(membership="cyclon", cyclon_view_size=1)


class TestSourceBias:
    def test_biased_source_selector_installed(self):
        build = built(ScenarioConfig(
            protocol="heap", distribution=REF_691, source_bias=2.0, **FAST))
        from repro.membership.selector import CapabilityBiasedSelector
        assert isinstance(build.nodes[0].selector, CapabilityBiasedSelector)
        # Receivers keep uniform selection.
        from repro.membership.selector import UniformSelector
        assert isinstance(build.nodes[1].selector, UniformSelector)
