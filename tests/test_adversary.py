"""The adversarial scenario engine: registry, mixes, placement, impact.

Covers the PR 8 contracts:

* the attack catalog registers at import time, rejects duplicates, and
  answers by name;
* ``AttackMix`` parses the CLI syntax, validates exhaustively (every
  violation in one report), and keys stably;
* placement policies are deterministic, topology-aware, and — via a
  hypothesis property — a pure function of (seed, population, capability
  topology);
* single-attack random placement stays on the pinned ``freeriders``
  stream (every freerider-study value recorded before the attack
  catalog existed still reproduces);
* ``ScenarioConfig.validate`` reports *all* violations in one
  ``ValueError``;
* attack implementations actually misbehave (counters move, advertised
  capability lies) and the ``attack_impact`` reduction is JSON-able.
"""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import (AttackMix, attack, attack_catalog, attack_names,
                             attack_impact, get_attack, is_registered,
                             place_attackers, place_ids)
from repro.adversary.mix import Placement  # noqa: F401  (public alias)
from repro.core.messages import Propose
from repro.experiments.runner import build_scenario, run_scenario
from repro.net.network import Network
from repro.sim.rng import derive_seed
from repro.workloads.distributions import REF_691
from repro.workloads.scenario import ScenarioConfig, scenario_key


def quick_config(**overrides) -> ScenarioConfig:
    base = dict(protocol="heap", n_nodes=40, duration=2.0, drain=4.0,
                seed=7, distribution=REF_691)
    base.update(overrides)
    return ScenarioConfig(**base)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_catalog_holds_the_five_intree_attacks(self):
        assert set(attack_names()) >= {"underclaim", "nonserve", "spam",
                                       "withhold", "poisoned-view"}

    def test_catalog_entries_are_complete(self):
        for entry in attack_catalog():
            assert entry.role in ("node", "sampler")
            assert entry.channel and entry.detection and entry.param_doc
            assert 0.0 < entry.default_param <= 1.0
            assert isinstance(entry.impl, type)

    def test_get_attack_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="nonserve"):
            get_attack("no-such-attack")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            @attack("spam", channel="x", detection="y",
                    default_param=0.5, param_doc="z")
            class Duplicate:  # pragma: no cover
                pass

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError, match="unknown attack role"):
            attack("fresh-name", role="router", channel="x", detection="y",
                   default_param=0.5, param_doc="z")

    def test_is_registered(self):
        assert is_registered("spam")
        assert not is_registered("no-such-attack")

    def test_poisoned_view_requires_cyclon(self):
        assert get_attack("poisoned-view").requires_membership == "cyclon"
        assert get_attack("spam").requires_membership is None


# ----------------------------------------------------------------------
# AttackMix: parsing, validation, identity
# ----------------------------------------------------------------------
class TestAttackMix:
    def test_parse_cli_syntax(self):
        mix = AttackMix.parse("spam=0.1, withhold=0.05",
                              params_text="spam=0.5",
                              victim_policy="edge")
        assert mix.attacks == (("spam", 0.1), ("withhold", 0.05))
        assert mix.param_for("spam") == 0.5
        assert mix.param_for("withhold") == get_attack("withhold").default_param
        assert mix.victim_policy == "edge"
        assert mix.total_fraction == pytest.approx(0.15)

    @pytest.mark.parametrize("text", ("spam", "spam=abc", "=0.1"))
    def test_parse_rejects_malformed_pairs(self, text):
        with pytest.raises(ValueError, match="--attacks"):
            AttackMix.parse(text)

    def test_violations_reported_exhaustively(self):
        with pytest.raises(ValueError) as excinfo:
            AttackMix(attacks=(("no-such", 0.2), ("spam", 1.5)),
                      params=(("withhold", 2.0),),
                      victim_policy="everywhere")
        problems = str(excinfo.value)
        assert "unknown attack 'no-such'" in problems
        assert "attack fraction for 'spam'" in problems
        assert "total attacked fraction" in problems
        assert "parameter override for 'withhold'" in problems
        assert "attack parameter for 'withhold'" in problems
        assert "unknown victim policy 'everywhere'" in problems

    def test_single_equals_parse(self):
        assert (AttackMix.single("nonserve", 0.2, 0.1)
                == AttackMix.parse("nonserve=0.2", params_text="nonserve=0.1"))

    def test_key_is_stable_and_discriminating(self):
        a = AttackMix.parse("spam=0.1")
        assert a.key() == AttackMix.parse("spam=0.1").key()
        assert a.key() != AttackMix.parse("spam=0.2").key()
        assert a.key() != AttackMix.parse("spam=0.1",
                                          victim_policy="edge").key()

    def test_required_membership_bubbles_up(self):
        assert AttackMix.parse("poisoned-view=0.1").required_membership() == "cyclon"
        assert AttackMix.parse("spam=0.1").required_membership() is None


# ----------------------------------------------------------------------
# placement policies
# ----------------------------------------------------------------------
class TestPlacement:
    CAPS = [9e9] + [100.0, 90.0, 80.0, 70.0, 60.0, 50.0, 40.0, 30.0,
                    20.0, 10.0]  # node 0 is the source

    def receivers(self):
        return range(1, len(self.CAPS))

    def test_high_degree_takes_the_hubs(self):
        ids = place_ids("high-degree", random.Random(1), self.receivers(),
                        self.CAPS, 3)
        assert ids == [1, 2, 3]

    def test_edge_takes_the_leaves(self):
        ids = place_ids("edge", random.Random(1), self.receivers(),
                        self.CAPS, 3)
        assert ids == [8, 9, 10]

    def test_clustered_is_a_contiguous_block(self):
        receivers = list(self.receivers())
        for seed in range(20):
            ids = place_ids("clustered", random.Random(seed), receivers,
                            self.CAPS, 4)
            positions = {receivers.index(n) for n in ids}
            # A contiguous block, possibly wrapping around the id space.
            count = len(receivers)
            assert any(positions == {(start + i) % count for i in range(4)}
                       for start in range(count))

    def test_random_matches_legacy_freerider_selection(self):
        seed = 42
        rng = random.Random(derive_seed(seed, "freeriders"))
        legacy = sorted(random.Random(derive_seed(seed, "freeriders"))
                        .sample(list(self.receivers()), 3))
        assert place_ids("random", rng, self.receivers(),
                         self.CAPS, 3) == legacy

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown victim policy"):
            place_ids("nearest", random.Random(0), self.receivers(),
                      self.CAPS, 2)

    def test_count_clamped_to_population(self):
        ids = place_ids("random", random.Random(0), self.receivers(),
                        self.CAPS, 99)
        assert ids == list(self.receivers())


policies = st.sampled_from(("random", "high-degree", "edge", "clustered"))
capability_pools = st.lists(st.sampled_from((10.0, 50.0, 100.0, 500.0)),
                            min_size=4, max_size=40)


class TestPlacementPurity:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), caps=capability_pools,
           policy=policies,
           fraction=st.floats(0.05, 0.6),
           multi=st.booleans())
    def test_placement_is_a_pure_function_of_seed_population_topology(
            self, seed, caps, policy, fraction, multi):
        """The property sharded execution rests on: every shard, every
        process, every call — same (mix, seed, population, capacities),
        same placement."""
        n_nodes = len(caps) + 1
        capacities = [9e9] + caps
        if multi:
            mix = AttackMix(attacks=(("spam", fraction / 2),
                                     ("withhold", fraction / 2)),
                            victim_policy=policy)
        else:
            mix = AttackMix.single("nonserve", fraction,
                                   victim_policy=policy)
        first = place_attackers(mix, seed=seed, n_nodes=n_nodes,
                                capacities=capacities)
        again = place_attackers(mix, seed=seed, n_nodes=n_nodes,
                                capacities=capacities)
        assert first == again
        receivers = list(range(1, n_nodes))
        expected = min(round(mix.total_fraction * len(receivers)),
                       len(receivers))
        assert len(first) == expected
        assert sorted(first) == list(first)  # placement iterates sorted
        assert all(node_id in receivers for node_id in first)
        names = set(mix.attack_names())
        assert all(name in names for name, _param in first.values())

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), caps=capability_pools)
    def test_single_attack_mix_matches_legacy_stream(self, seed, caps):
        """Single-attack random placement reproduces the historical
        ``freeriders``-stream selection bit for bit."""
        n_nodes = len(caps) + 1
        receivers = list(range(1, n_nodes))
        count = round(0.2 * len(receivers))
        legacy = sorted(random.Random(derive_seed(seed, "freeriders"))
                        .sample(receivers, count))
        mix = AttackMix.single("nonserve", 0.2, 0.1)
        placed = place_attackers(mix, seed=seed, n_nodes=n_nodes,
                                 capacities=[9e9] + caps)
        assert sorted(placed) == legacy
        assert all(placed[n] == ("nonserve", 0.1) for n in placed)


# ----------------------------------------------------------------------
# scenario identity
# ----------------------------------------------------------------------
class TestScenarioKey:
    def test_scenario_key_unchanged_for_honest_configs(self):
        key = scenario_key(quick_config())
        assert "adversary" not in key  # honest keys never name the field
        assert "adversary" in scenario_key(
            quick_config(adversary=AttackMix.single("spam", 0.1)))


# ----------------------------------------------------------------------
# ScenarioConfig.validate: exhaustive reporting
# ----------------------------------------------------------------------
class TestValidateAllViolations:
    def test_multiple_violations_reported_in_one_error(self):
        with pytest.raises(ValueError) as excinfo:
            quick_config(duration=-1.0, loss_rate=1.5,
                         membership="gossipsub")
        message = str(excinfo.value)
        assert "duration must be positive" in message
        assert "loss rate must be in [0, 1)" in message
        assert "unknown membership 'gossipsub'" in message

    def test_bad_mix_is_refused_before_the_scenario(self):
        with pytest.raises(ValueError) as excinfo:
            AttackMix.parse("no-such=0.1,spam=1.5")
        message = str(excinfo.value)
        assert "unknown attack 'no-such'" in message
        assert "attack fraction for 'spam'" in message

    def test_adversary_violations_flow_into_the_report(self):
        with pytest.raises(ValueError) as excinfo:
            quick_config(duration=-1.0, protocol="standard",
                         adversary=AttackMix.single("poisoned-view", 0.1))
        message = str(excinfo.value)
        assert "duration must be positive" in message
        assert "heap protocol" in message
        assert "membership='cyclon'" in message

    def test_sampler_attack_needs_cyclon(self):
        with pytest.raises(ValueError, match="membership='cyclon'"):
            quick_config(
                adversary=AttackMix.single("poisoned-view", 0.1))
        quick_config(membership="cyclon",
                     adversary=AttackMix.single("poisoned-view", 0.1))

    def test_attacks_are_heap_only(self):
        with pytest.raises(ValueError, match="heap protocol"):
            quick_config(protocol="standard",
                         adversary=AttackMix.single("spam", 0.1))

    def test_valid_config_still_validates(self):
        quick_config(adversary=AttackMix.parse(
            "spam=0.1,withhold=0.05", victim_policy="clustered"))


# ----------------------------------------------------------------------
# the attacks actually misbehave
# ----------------------------------------------------------------------
class TestAttackBehaviour:
    def run_with(self, mix, **overrides):
        return run_scenario(quick_config(adversary=mix, **overrides))

    def test_underclaim_advertises_a_fraction(self):
        config = quick_config(adversary=AttackMix.single("underclaim", 0.2,
                                                         0.25))
        build = build_scenario(config)
        build.sim.run(until=config.end_time)
        assert build.attackers
        for node_id in build.attackers:
            node = build.nodes[node_id]
            assert node.capability_bps == pytest.approx(
                0.25 * node.true_capability_bps)
            # The physical uplink keeps the true capacity: only the
            # advertisement lies.
            assert build.net.uplink(node_id).capacity_bps == pytest.approx(
                node.true_capability_bps)

    def test_nonserve_drops_requests(self):
        result = self.run_with(AttackMix.single("nonserve", 0.2, 0.1))
        dropped = sum(s["requests_dropped"]
                      for s in result.attacker_stats.values())
        assert dropped > 0

    def test_spam_exceeds_the_fanout_budget(self, monkeypatch):
        # Proposes per sender, counted where every propose is sent.
        proposes = {}
        send_many = Network.send_many

        def counting_send_many(net, src, dsts, payload):
            if isinstance(payload, Propose):
                proposes[src] = proposes.get(src, 0) + len(dsts)
            return send_many(net, src, dsts, payload)

        monkeypatch.setattr(Network, "send_many", counting_send_many)
        result = self.run_with(AttackMix.single("spam", 0.15, 0.5))
        spam = sum(s["spam_proposes"] for s in result.attacker_stats.values())
        assert spam > 0
        honest_ids = [n for n in result.receiver_ids()
                      if n not in result.attackers]
        mean_honest = (sum(proposes.get(n, 0) for n in honest_ids)
                       / len(honest_ids))
        mean_spam = (sum(proposes.get(n, 0) for n in result.attackers)
                     / len(result.attackers))
        assert mean_spam > mean_honest

    def test_withhold_starves_its_forwarding(self):
        result = self.run_with(AttackMix.single("withhold", 0.2, 0.05))
        withheld = sum(s["ids_withheld"]
                       for s in result.attacker_stats.values())
        assert withheld > 0

    def test_poisoned_view_fabricates_entries(self):
        result = self.run_with(AttackMix.single("poisoned-view", 0.15),
                               membership="cyclon")
        poisoned = sum(s["entries_poisoned"]
                       for s in result.attacker_stats.values())
        assert poisoned > 0
        # The gossip node itself stays honest: no node-attack counters.
        for node_id in result.attackers:
            assert not hasattr(result.nodes[node_id], "spam_proposes")

    def test_weighted_mix_assigns_both_attacks(self):
        result = self.run_with(AttackMix.parse("spam=0.15,withhold=0.15"))
        planted = {name for name, _param in result.attackers.values()}
        assert planted == {"spam", "withhold"}


# ----------------------------------------------------------------------
# impact metrics
# ----------------------------------------------------------------------
class TestAttackImpact:
    def test_impact_is_json_able_and_shaped(self):
        result = run_scenario(quick_config(
            audit=True,
            adversary=AttackMix.single("nonserve", 0.2, 0.1)))
        impact = attack_impact(result)
        encoded = json.loads(json.dumps(impact))
        assert encoded["attackers"]["by_attack"] == {"nonserve":
                                                     impact["attackers"]["n"]}
        assert impact["honest"]["n"] + impact["attacked"]["n"] == len(
            result.receiver_ids())
        assert math.isfinite(impact["delta"]["delivery_pct"])
        assert impact["attacker_cost"]["counters"]["requests_dropped"] > 0

    def test_honest_run_reports_empty_attacker_side(self):
        impact = attack_impact(run_scenario(quick_config()))
        assert impact["attackers"] == {"n": 0, "by_attack": {}}
        assert impact["attacked"]["n"] == 0
        assert math.isnan(impact["attacked"]["delivery_pct"])
