"""Sharded single-scenario execution: determinism and parity tests.

The contract under test is the strongest one the sharded engine makes:
partitioning a scenario across shards is a pure *execution* strategy —
the merged result's metric summaries are byte-identical to the serial
run of the same scenario, for any shard count, for both the in-process
windowed driver and real worker processes (fork and spawn).

The flagship case is a 1k-node heap scenario (paper-scale-plus, the
population size the ROADMAP names as the point of intra-scenario
sharding), verified at 2 and 4 shards.
"""

import json

import pytest

from repro.adversary import AttackMix
from repro.experiments.runner import run_scenario
from repro.metrics.summary import standard_bundle, summarize
from repro.net.shard import (ShardRouter, merge_harvests, partition,
                             run_sharded, shard_of)
from repro.workloads.churn import CatastrophicFailure
from repro.workloads.distributions import MS_691, REF_691
from repro.workloads.scenario import ScenarioConfig


def summary_blob(result) -> str:
    """Canonical JSON of the standard spec bundle: the byte-parity key."""
    return json.dumps(summarize(result, standard_bundle()), sort_keys=True)


def sharded_config(**overrides) -> ScenarioConfig:
    base = dict(protocol="heap", n_nodes=80, duration=3.0, drain=6.0,
                seed=5, distribution=REF_691,
                latency_rng="per-pair", latency_floor=0.02)
    base.update(overrides)
    return ScenarioConfig(**base)


# ----------------------------------------------------------------------
# flagship: 1k nodes, shards 2 and 4, byte-identical summaries
# ----------------------------------------------------------------------
class TestThousandNodeParity:
    """The acceptance case: one large (1k-node) scenario, sharded."""

    @pytest.fixture(scope="class")
    def serial_blob(self):
        return summary_blob(run_scenario(self._config()))

    @staticmethod
    def _config(**overrides):
        return sharded_config(n_nodes=1000, duration=1.0, drain=2.0,
                              seed=11, latency_floor=0.04, **overrides)

    def test_two_shard_processes_match_serial(self, serial_blob):
        merged = run_sharded(self._config(shards=2), processes=True)
        assert summary_blob(merged) == serial_blob

    def test_four_shards_match_serial(self, serial_blob):
        merged = run_sharded(self._config(shards=4), processes=False)
        assert summary_blob(merged) == serial_blob


# ----------------------------------------------------------------------
# drivers and substrates at small scale
# ----------------------------------------------------------------------
class TestDriverParity:
    def test_serial_driver_matches_serial_run(self):
        config = sharded_config()
        serial = summary_blob(run_scenario(config))
        merged = run_sharded(config.with_(shards=3), processes=False)
        assert summary_blob(merged) == serial

    def test_spawn_workers_match_serial(self):
        config = sharded_config(n_nodes=50, duration=2.0, drain=4.0)
        serial = summary_blob(run_scenario(config))
        merged = run_sharded(config.with_(shards=2), processes=True,
                             start_method="spawn")
        assert summary_blob(merged) == serial

    def test_run_scenario_dispatches_on_shards_field(self):
        config = sharded_config(n_nodes=40, duration=2.0, drain=4.0)
        serial = run_scenario(config)
        merged = run_scenario(config.with_(shards=2))
        assert summary_blob(merged) == summary_blob(serial)
        # Merged traffic totals equal the serial fabric's.
        assert merged.net.stats.sent == serial.net.stats.sent
        assert merged.net.stats.delivered == serial.net.stats.delivered
        assert merged.net.stats.bytes_sent == serial.net.stats.bytes_sent
        assert (merged.net.stats.bytes_by_kind
                == serial.net.stats.bytes_by_kind)
        assert merged.publish_times == serial.publish_times

    def test_standard_protocol_and_other_distribution(self):
        config = sharded_config(protocol="standard", distribution=MS_691,
                                n_nodes=50, duration=2.0, drain=4.0)
        serial = summary_blob(run_scenario(config))
        merged = run_sharded(config.with_(shards=2), processes=False)
        assert summary_blob(merged) == serial

    def test_cyclon_membership_and_discovery_shard_cleanly(self):
        # Peer sampling is message-based and discovery phases come off a
        # shared setup stream consumed for every node: both must survive
        # partitioning bit-for-bit.
        config = sharded_config(n_nodes=50, duration=2.0, drain=4.0,
                                membership="cyclon",
                                capability_discovery=True)
        serial = summary_blob(run_scenario(config))
        merged = run_sharded(config.with_(shards=2), processes=False)
        assert summary_blob(merged) == serial


# ----------------------------------------------------------------------
# partitioning and validation
# ----------------------------------------------------------------------
class TestShardingRules:
    def test_round_robin_partition_covers_population(self):
        parts = [partition(10, 3, i) for i in range(3)]
        assert set().union(*parts) == set(range(10))
        assert sum(len(p) for p in parts) == 10
        assert shard_of(0, 3) == 0  # the source lives in shard 0
        for i in range(3):
            assert all(shard_of(n, 3) == i for n in parts[i])

    def test_shared_latency_rng_rejected(self):
        with pytest.raises(ValueError, match="per-pair"):
            ScenarioConfig(shards=2, latency_floor=0.02)

    def test_zero_floor_rejected(self):
        with pytest.raises(ValueError, match="latency_floor"):
            ScenarioConfig(shards=2, latency_rng="per-pair",
                           latency_floor=0.0)

    def test_churn_accepted(self):
        # Was rejected until churn became replicated, verified state
        # (tests/test_shard_complete.py covers the parity contract).
        sharded_config(
            shards=2,
            churn=CatastrophicFailure(fraction=0.2, at_time=5.0),
        )

    def test_audit_accepted(self):
        sharded_config(
            shards=2, audit=True,
            adversary=AttackMix.single("nonserve", 0.1, 0.1))

    def test_shared_loss_rejected_per_pair_accepted(self):
        # The shared loss model consumes one stream in global send order,
        # which sharding cannot reproduce; the per-pair model can.
        with pytest.raises(ValueError, match="loss_rng='per-pair'"):
            sharded_config(shards=2, loss_rate=0.01)
        sharded_config(shards=2, loss_rate=0.01,
                       loss_rng="per-pair")

    def test_more_shards_than_nodes_rejected(self):
        with pytest.raises(ValueError, match="per shard"):
            sharded_config(n_nodes=3, shards=4)

    def test_run_sharded_requires_multiple_shards(self):
        with pytest.raises(ValueError, match="shards > 1"):
            run_sharded(sharded_config())

    def test_worker_failure_surfaces_as_runtime_error(self):
        # A worker that dies mid-window must produce a loud coordinated
        # error at the coordinator, not a silent hang at the barrier.
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork to propagate the injected failure")
        config = sharded_config(n_nodes=40, duration=2.0, drain=4.0,
                                shards=2)
        import repro.net.shard as shard_mod

        original = shard_mod._ShardRun.run_window
        try:
            def boom(self, until):
                raise RuntimeError("injected shard failure")

            shard_mod._ShardRun.run_window = boom
            with pytest.raises(RuntimeError, match="shard .* failed"):
                shard_mod._run_process_shards(config, config.end_time, None)
        finally:
            shard_mod._ShardRun.run_window = original


class TestMergedResult:
    def test_merged_result_exposes_experiment_surface(self):
        config = sharded_config(n_nodes=40, duration=2.0, drain=4.0,
                                shards=2)
        merged = run_scenario(config)
        receivers = merged.receiver_ids()
        assert receivers == list(range(1, 40))
        assert len(merged.class_labels()) == 3
        for node_id in receivers:
            assert merged.log_of(node_id) is not None
            assert 0.0 <= merged.uplink_utilization(node_id) <= 1.0
        assert merged.total_packets == len(merged.publish_times)
        assert merged.sim.events_executed > 0

    def test_merge_harvests_is_order_insensitive_by_ownership(self):
        # Each shard harvest carries disjoint logs/uplinks; merging must
        # reassemble the full population exactly once.
        config = sharded_config(n_nodes=30, duration=2.0, drain=4.0,
                                shards=3)
        from repro.net.shard import _run_serial_shards

        harvests = _run_serial_shards(config, config.end_time)
        merged = merge_harvests(config, harvests)
        owned = [set(h["logs"]) for h in harvests]
        assert set().union(*owned) == set(range(30))
        for a in range(3):
            for b in range(a + 1, 3):
                assert not (owned[a] & owned[b])
        assert len(merged.nodes) == 30


class TestShardRouterOwnership:
    def test_local_and_remote_split(self):
        owned = partition(20, 2, 0)
        router = ShardRouter(owned, 2)
        assert all(n % 2 == 0 for n in router.owned)
        assert len(router.take_outboxes()) == 2
