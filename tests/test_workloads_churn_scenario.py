"""Tests for churn scenarios and scenario configuration."""

import random

import pytest

from repro.core.config import GossipConfig
from repro.membership.directory import MembershipDirectory
from repro.sim.engine import Simulator
from repro.workloads.churn import CatastrophicFailure, IntervalChurn
from repro.workloads.distributions import MS_691
from repro.workloads.scenario import ScenarioConfig


def make_directory(sim, n=20):
    directory = MembershipDirectory(sim, random.Random(1), mean_detection_delay=0.0)
    directory.register_all(range(n))
    return directory


class TestCatastrophicFailure:
    def test_crashes_fraction_at_time(self):
        sim = Simulator()
        directory = make_directory(sim, n=20)
        crashed = []
        failure = CatastrophicFailure(fraction=0.5, at_time=60.0)
        failure.schedule(sim, directory, random.Random(2), crashed.append,
                         protect=[0])
        sim.run(until=59.9)
        assert crashed == []
        sim.run(until=61.0)
        assert len(crashed) == 10
        assert 0 not in crashed
        assert directory.alive_count() == 10
        assert failure.victims == crashed

    def test_validation(self):
        with pytest.raises(ValueError):
            CatastrophicFailure(fraction=1.0)
        with pytest.raises(ValueError):
            CatastrophicFailure(fraction=0.5, at_time=-1.0)

    def test_zero_fraction_is_noop(self):
        sim = Simulator()
        directory = make_directory(sim)
        failure = CatastrophicFailure(fraction=0.0, at_time=1.0)
        failure.schedule(sim, directory, random.Random(1), lambda v: None)
        sim.run()
        assert failure.victims == []


class TestIntervalChurn:
    def test_crashes_one_per_interval(self):
        sim = Simulator()
        directory = make_directory(sim, n=30)
        crashed = []
        churn = IntervalChurn(interval=5.0, stop=20.0)
        churn.schedule(sim, directory, random.Random(3), crashed.append,
                       protect=[0])
        sim.run(until=21.0)
        assert len(crashed) == 4  # t = 5, 10, 15, 20
        assert 0 not in crashed

    def test_stops_after_deadline(self):
        sim = Simulator()
        directory = make_directory(sim, n=30)
        crashed = []
        churn = IntervalChurn(interval=1.0, stop=3.0)
        churn.schedule(sim, directory, random.Random(3), crashed.append)
        sim.run(until=50.0)
        assert len(crashed) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            IntervalChurn(interval=0.0)


class TestScenarioConfig:
    def test_defaults_validate(self):
        ScenarioConfig()

    def test_with_creates_modified_copy(self):
        base = ScenarioConfig()
        changed = base.with_(protocol="standard", n_nodes=50)
        assert changed.protocol == "standard"
        assert changed.n_nodes == 50
        assert base.protocol == "heap"

    def test_end_time_and_total_packets(self):
        config = ScenarioConfig(duration=30.0, drain=10.0, stream_start=2.0)
        assert config.end_time == 42.0
        assert config.total_packets % config.stream.packets_per_window == 0

    @pytest.mark.parametrize("overrides", [
        {"protocol": "carrier-pigeon"},
        {"n_nodes": 1},
        {"duration": 0.0},
        {"drain": -1.0},
        {"stream_start": -1.0},
        {"loss_rate": 1.0},
        {"source_capacity_bps": 0.0},
        {"degraded_fraction": 1.5},
        {"degraded_factor": 0.0},
        {"source_bias": -1.0},
        {"latency_median": 0.0},
        {"latency_median": 0.0, "latency_rng": "per-pair"},
        {"latency_jitter": -0.01},
    ])
    def test_invalid_configs(self, overrides):
        with pytest.raises(ValueError):
            ScenarioConfig(**overrides)

    @pytest.mark.parametrize("overrides, named", [
        ({"drain": float("nan")}, "drain"),
        ({"drain": float("inf")}, "drain"),
        ({"duration": float("nan")}, "duration"),
        ({"stream_start": float("-inf")}, "stream_start"),
        ({"latency_jitter": float("nan"), "loss_rate": float("nan")},
         "loss_rate, latency_jitter"),
        ({"gossip": GossipConfig(aggregation_period=float("inf"))},
         "gossip.aggregation_period"),
    ])
    def test_non_finite_fields_are_violations(self, overrides, named):
        """NaN passes every ``<=`` range test: one check refuses it, and
        infinities, in any float field."""
        with pytest.raises(ValueError) as excinfo:
            ScenarioConfig(**overrides)
        assert f"must be finite: {named}" in str(excinfo.value).split("; ")

    def test_distribution_field(self):
        config = ScenarioConfig(distribution=MS_691)
        assert config.distribution.name == "ms-691"

    def test_loss_rng_validation(self):
        ScenarioConfig(loss_rng="shared")
        ScenarioConfig(loss_rng="per-pair")
        with pytest.raises(ValueError, match="loss_rng"):
            ScenarioConfig(loss_rng="per-message")

    def test_scenario_key_separates_loss_rng_modes(self):
        """Regression: the two loss models draw different traffic, so
        their runs must never alias in caches or checkpoints."""
        from repro.workloads.scenario import scenario_key

        shared = ScenarioConfig(loss_rate=0.1)
        per_pair = shared.with_(loss_rng="per-pair")
        assert scenario_key(shared) != scenario_key(per_pair)
        assert "loss_rng" in scenario_key(shared)

    def test_latency_violations_are_reported_not_raised_from_the_build(self):
        with pytest.raises(ValueError) as excinfo:
            ScenarioConfig(latency_median=-1.0, latency_jitter=-1.0)
        assert [v for v in str(excinfo.value).split("; ")
                if "latency" in v] == [
            "latency median must be positive", "latency jitter must be >= 0"]

    def test_scenario_key_versions_the_per_pair_streams_only(self, monkeypatch):
        """The per-link stream derivation is identity for per-pair
        scenarios — a checkpoint computed under another derivation must
        not be resumed — and is absent from shared-mode keys, which
        therefore survive a derivation change byte for byte."""
        import repro.workloads.scenario as scenario

        shared = ScenarioConfig(loss_rate=0.1)
        per_pair = [shared.with_(latency_rng="per-pair"),
                    shared.with_(loss_rng="per-pair"),
                    shared.with_(latency_rng="per-pair", loss_rng="per-pair")]
        tag = f"('per_pair_streams', '{scenario.PER_PAIR_STREAMS}')"
        assert "per_pair_streams" not in scenario.scenario_key(shared)
        assert all(tag in scenario.scenario_key(c) for c in per_pair)
        before = [scenario.scenario_key(c) for c in [shared] + per_pair]
        monkeypatch.setattr(scenario, "PER_PAIR_STREAMS", 1)
        after = [scenario.scenario_key(c) for c in [shared] + per_pair]
        assert after[0] == before[0]
        assert all(a != b for a, b in zip(after[1:], before[1:]))
