"""Shard-complete scenario coverage: churn, loss and the freerider audit.

PR 4/5 built the sharded execution engine but kept the flagship paper
scenarios out of it: churn, lossy networks and the freerider audit all
raised loudly under ``shards > 1``.  This file pins the contract that
closes that gap — the three remaining scenario families partition, and
their merged results are **byte-identical** to the serial run of the
same scenario:

* **churn** is replicated (every shard draws the same victims and
  detection delays from its copy of the streams) and cross-verified by
  control rows riding the packed window buffers;
* **loss** uses the order-independent ``loss_rng="per-pair"`` model
  mirroring ``PerPairLatency``;
* **the audit** runs each detector wholly on its owner shard and folds
  picklable detector snapshots into the merged result, so convictions
  are computed from the full population's evidence.

PR 8 adds the adversarial families: a weighted attack mix with
topology-aware placement (replicated on every shard, each attacker's
implementation running only on its owner shard — counters harvested
like detector snapshots) and the sampler-role ``poisoned-view`` attack
under cyclon membership.

The matrix covers every family at 2 and 4 shards under the in-process
serial driver and real fork/spawn worker processes.
"""

import json
import multiprocessing

import pytest

from repro.adversary import AttackMix
from repro.experiments.runner import run_scenario
from repro.freeriders.analysis import (convictions, detection_accuracy,
                                       honest_vs_freerider_contribution)
from repro.metrics.summary import standard_bundle, summarize
from repro.net.shard import run_sharded
from repro.workloads.churn import CatastrophicFailure, IntervalChurn
from repro.workloads.distributions import REF_691
from repro.workloads.scenario import ScenarioConfig


def summary_blob(result) -> str:
    """Canonical JSON of the standard spec bundle: the byte-parity key."""
    return json.dumps(summarize(result, standard_bundle()), sort_keys=True)


def audit_blob(result) -> str:
    """Audit verdicts and contribution indices, canonically serialized.

    The standard bundle doesn't reach into the detectors, so audit
    parity additionally pins the full verdict surface: quorum
    convictions, their accuracy against the planted ground truth, and
    the contribution split — all computed from the (merged) evidence.
    """
    convicted = sorted(convictions(result))
    accuracy = detection_accuracy(result, set(convicted))
    return json.dumps({
        "convicted": convicted,
        "precision": accuracy.precision,
        "recall": accuracy.recall,
        "contribution": honest_vs_freerider_contribution(result),
    }, sort_keys=True)


def _scores(detector) -> dict:
    """A detector's global score table as comparable values."""
    return {peer: (score.asked, score.answered, score.reporters)
            for peer, score in detector._global.items()}


def base_config(**overrides) -> ScenarioConfig:
    base = dict(protocol="heap", n_nodes=48, duration=2.0, drain=4.0,
                seed=13, distribution=REF_691,
                latency_rng="per-pair", latency_floor=0.05)
    base.update(overrides)
    return ScenarioConfig(**base)


#: The scenario families PR 6 taught to shard.  Churn fires inside
#: the stream (t=3 < 2 + 2), so crash/detection behaviour is exercised
#: while packets are in flight across the partition.
LEGACY_FAMILIES = {
    "churn": dict(churn=CatastrophicFailure(fraction=0.25, at_time=3.0)),
    "loss": dict(loss_rate=0.05, loss_rng="per-pair"),
    "audit": dict(audit=True,
                  adversary=AttackMix.single("nonserve", 0.2, 0.1)),
}

#: PR 8's adversarial families: a weighted node-attack mix with
#: topology-aware placement (attackers built population-wide, started
#: only on their owner shard — the audit pattern), and the sampler-role
#: attack riding decentralized cyclon membership.
ATTACK_FAMILIES = {
    "attack-mix": dict(audit=True,
                       adversary=AttackMix.parse("spam=0.1,withhold=0.05",
                                                 victim_policy="high-degree")),
    "poisoned-view": dict(membership="cyclon",
                          adversary=AttackMix.single("poisoned-view", 0.15)),
}

FAMILIES = {**LEGACY_FAMILIES, **ATTACK_FAMILIES}

DRIVERS = ("serial-driver", "fork", "spawn")


def run_family_sharded(family: str, shards: int, driver: str):
    config = base_config(shards=shards, **FAMILIES[family])
    if driver == "serial-driver":
        return run_sharded(config, processes=False)
    if driver == "fork" and "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable on this platform")
    return run_sharded(config, processes=True, start_method=driver)


@pytest.fixture(scope="module")
def serial():
    """Per-family serial baselines, computed once for the whole matrix."""
    cache = {}

    def get(family: str):
        if family not in cache:
            cache[family] = run_scenario(base_config(**FAMILIES[family]))
        return cache[family]

    return get


# ----------------------------------------------------------------------
# the matrix: {family} x {2, 4 shards} x {serial driver, fork, spawn}
# ----------------------------------------------------------------------
@pytest.mark.parametrize("driver", DRIVERS)
@pytest.mark.parametrize("shards", (2, 4))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_summaries_byte_identical(family, shards, driver, serial):
    merged = run_family_sharded(family, shards, driver)
    assert summary_blob(merged) == summary_blob(serial(family))


def test_all_families_combined_shard_cleanly(serial):
    """Churn + loss + audit in one scenario: the features compose.

    The legacy families only: a scenario carries one ``adversary`` mix
    and the audit family already sets it, so the attack families have
    their own composition test below.
    """
    combined = {}
    for overrides in LEGACY_FAMILIES.values():
        combined.update(overrides)
    config = base_config(**combined)
    baseline = run_scenario(config)
    merged = run_sharded(config.with_(shards=3), processes=False)
    assert summary_blob(merged) == summary_blob(baseline)
    assert audit_blob(merged) == audit_blob(baseline)
    assert merged.crash_times == baseline.crash_times


def test_attack_mix_composes_with_churn_and_loss(serial):
    """Churn + loss + a weighted attack mix + audit in one scenario."""
    combined = {}
    for key in ("churn", "loss"):
        combined.update(LEGACY_FAMILIES[key])
    combined.update(ATTACK_FAMILIES["attack-mix"])
    config = base_config(**combined)
    baseline = run_scenario(config)
    merged = run_sharded(config.with_(shards=3), processes=False)
    assert summary_blob(merged) == summary_blob(baseline)
    assert audit_blob(merged) == audit_blob(baseline)
    assert merged.crash_times == baseline.crash_times


def test_interval_churn_matches_serial(serial):
    config = base_config(churn=IntervalChurn(interval=0.7, stop=4.0))
    baseline = summary_blob(run_scenario(config))
    merged = run_sharded(config.with_(shards=2), processes=False)
    assert summary_blob(merged) == baseline


# ----------------------------------------------------------------------
# event counts: every non-replicated event runs on exactly one shard
# ----------------------------------------------------------------------
#: Churn-free scenarios: each event is a delivery or an owned node's
#: timer, so the shards' ``events_executed`` sum to the serial count.
CHURN_FREE = {
    "plain": {},
    "audit": dict(audit=True),
    "cyclon-loss": dict(membership="cyclon", loss_rate=0.03,
                        loss_rng="per-pair"),
}


def events_executed(overrides: dict, shards: int) -> int:
    config = base_config(shards=shards, **overrides)
    result = (run_sharded(config, processes=False) if shards > 1
              else run_scenario(config))
    return result.sim.events_executed


@pytest.mark.parametrize("family", sorted(CHURN_FREE))
def test_churn_free_event_count_equals_serial(family):
    overrides = CHURN_FREE[family]
    serial_count = events_executed(overrides, 1)
    assert events_executed(overrides, 2) == serial_count
    assert events_executed(overrides, 4) == serial_count


def test_replicated_churn_is_the_only_event_surplus():
    """Crashes and their detection notifications run on every replica:
    the same surplus once per extra shard, nothing else."""
    overrides = FAMILIES["churn"]
    serial_count = events_executed(overrides, 1)
    surplus = events_executed(overrides, 2) - serial_count
    assert surplus > 0
    assert events_executed(overrides, 4) - serial_count == 3 * surplus


# ----------------------------------------------------------------------
# churn: replicated membership, verified over the wire
# ----------------------------------------------------------------------
class TestChurnSharding:
    def test_merged_crash_times_match_serial(self, serial):
        merged = run_family_sharded("churn", 2, "serial-driver")
        baseline = serial("churn")
        assert merged.crash_times == baseline.crash_times
        assert len(merged.crash_times) > 0
        # Victims are excluded from the default receiver set, exactly
        # as in the serial result.
        assert merged.receiver_ids() == baseline.receiver_ids()
        assert (merged.receiver_ids(include_crashed=True)
                == baseline.receiver_ids(include_crashed=True))

    def test_owner_announces_each_crash_to_every_peer(self):
        config = base_config(shards=3, **FAMILIES["churn"])
        merged = run_sharded(config, processes=False)
        victims = len(merged.crash_times)
        assert victims > 0
        # One control row per victim per peer shard, counted at the
        # owner; the counter survives the harvest merge.
        assert merged.net.stats.wire_control_rows == victims * 2
        assert merged.net.stats.wire_summary()["control_rows"] == victims * 2

    def test_lossless_scenarios_ship_no_control_rows(self):
        merged = run_sharded(base_config(shards=2), processes=False)
        assert merged.net.stats.wire_control_rows == 0


# ----------------------------------------------------------------------
# audit: verdicts from merged evidence
# ----------------------------------------------------------------------
class TestAuditSharding:
    @pytest.mark.parametrize("shards", (2, 4))
    def test_verdicts_identical_to_serial(self, shards, serial):
        merged = run_family_sharded("audit", shards, "serial-driver")
        assert audit_blob(merged) == audit_blob(serial("audit"))

    def test_merged_detectors_cover_the_population(self, serial):
        merged = run_family_sharded("audit", 4, "serial-driver")
        baseline = serial("audit")
        assert set(merged.detectors) == set(baseline.detectors)
        # Each shard's snapshots answer the serial run's verdict queries
        # from the same global score table.
        for node_id, serial_detector in baseline.detectors.items():
            frozen = merged.detectors[node_id]
            assert frozen.suspects() == serial_detector.suspects()
            assert _scores(frozen) == _scores(serial_detector)

    def test_contribution_surface_survives_the_merge(self, serial):
        merged = run_family_sharded("audit", 2, "serial-driver")
        baseline = serial("audit")
        for node_id in baseline.receiver_ids():
            assert (merged.nodes[node_id].packets_served
                    == baseline.nodes[node_id].packets_served)
            assert (len(merged.log_of(node_id))
                    == len(baseline.log_of(node_id)))


# ----------------------------------------------------------------------
# attacks: replicated placement, owner-shard counters (the audit pattern)
# ----------------------------------------------------------------------
class TestAttackSharding:
    def test_placement_replicated_and_merged(self, serial):
        merged = run_family_sharded("attack-mix", 2, "serial-driver")
        baseline = serial("attack-mix")
        assert merged.attackers == baseline.attackers
        assert merged.freerider_ids == baseline.freerider_ids
        assert len(merged.attackers) > 0
        # high-degree placement: every attacker sits in the top
        # capability stratum of the receivers.
        floor = min(baseline.capacities[n] for n in baseline.attackers)
        better = [n for n in baseline.receiver_ids(include_crashed=True)
                  if baseline.capacities[n] > floor]
        assert len(better) < len(baseline.attackers)

    def test_attacker_counters_survive_the_merge(self, serial):
        merged = run_family_sharded("attack-mix", 4, "serial-driver")
        baseline = serial("attack-mix")
        assert merged.attacker_stats == baseline.attacker_stats
        totals = {}
        for stats in merged.attacker_stats.values():
            for counter, value in stats.items():
                totals[counter] = totals.get(counter, 0) + value
        assert totals.get("spam_proposes", 0) > 0
        assert totals.get("ids_withheld", 0) > 0

    def test_attack_impact_summary_identical(self, serial):
        from repro.adversary import attack_impact

        for family in ("attack-mix", "poisoned-view"):
            merged = run_family_sharded(family, 2, "serial-driver")
            assert (json.dumps(attack_impact(merged), sort_keys=True)
                    == json.dumps(attack_impact(serial(family)), sort_keys=True))

    def test_poisoned_sampler_counters_nonzero(self, serial):
        baseline = serial("poisoned-view")
        poisoned = sum(s.get("entries_poisoned", 0)
                       for s in baseline.attacker_stats.values())
        assert poisoned > 0


# ----------------------------------------------------------------------
# loss: the per-pair model
# ----------------------------------------------------------------------
class TestLossSharding:
    def test_loss_counters_match_serial(self, serial):
        merged = run_family_sharded("loss", 2, "serial-driver")
        baseline = serial("loss")
        assert merged.net.stats.lost == baseline.net.stats.lost > 0
        assert merged.net.stats.sent == baseline.net.stats.sent
        assert merged.net.stats.delivered == baseline.net.stats.delivered


# ----------------------------------------------------------------------
# validation: no family raises under --shards any more
# ----------------------------------------------------------------------
class TestShardValidation:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_families_validate_under_shards(self, family):
        base_config(shards=2, **FAMILIES[family])
        base_config(shards=4, **FAMILIES[family])

    def test_shared_loss_still_rejected(self):
        with pytest.raises(ValueError, match="loss_rng='per-pair'"):
            base_config(shards=2, loss_rate=0.05)
