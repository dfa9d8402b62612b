"""One result shape: serial and sharded runs end in the same harvest.

A finished run is plain data — per-node records, a simulator and a
network record, detector snapshots — however it ran, so the metrics that
read per-node adaptation state agree across drivers and a result
pickles without its build graph.
"""

import json
import pickle

from repro.experiments.ablations import SPEC_AGGREGATION, SPEC_RICH_FANOUT
from repro.experiments.runner import NodeRecord, run_scenario
from repro.freeriders.detection import FrozenDetector
from repro.metrics.summary import standard_bundle, summarize
from repro.workloads.distributions import MS_691
from repro.workloads.scenario import ScenarioConfig

SPECS = (SPEC_AGGREGATION, SPEC_RICH_FANOUT)


def small_config(**overrides) -> ScenarioConfig:
    base = dict(protocol="heap", n_nodes=40, duration=2.0, drain=4.0,
                seed=5, distribution=MS_691, latency_rng="per-pair",
                latency_floor=0.02)
    base.update(overrides)
    return ScenarioConfig(**base)


def canonical(summary) -> str:
    return json.dumps(summary, sort_keys=True)


def test_adaptation_summaries_equal_serial_and_sharded():
    serial = summarize(run_scenario(small_config()), SPECS)
    sharded = summarize(run_scenario(small_config(shards=2)), SPECS)
    assert serial[SPEC_RICH_FANOUT.name]["rich_fanout"] is not None
    assert canonical(sharded) == canonical(serial)


def test_serial_result_survives_a_pickle_round_trip():
    result = run_scenario(small_config(audit=True))
    before = canonical(summarize(result, standard_bundle()))
    copy = pickle.loads(pickle.dumps(result))
    assert canonical(summarize(copy, standard_bundle())) == before
    assert copy.sim.events_executed == result.sim.events_executed


def test_result_holds_records_not_live_objects():
    result = run_scenario(small_config(audit=True))
    assert all(type(node) is NodeRecord for node in result.nodes)
    assert result.detectors
    assert all(type(detector) is FrozenDetector
               for detector in result.detectors.values())
    assert result.nodes[1].fanout > 0
    assert result.nodes[1].capability_estimate > 0


def test_tree_nodes_have_no_adaptation_state():
    result = run_scenario(small_config(protocol="tree"))
    node = result.nodes[1]
    assert node.fanout is None and node.capability_estimate is None
    assert node.capability_bps == result.capacity_of(1)
