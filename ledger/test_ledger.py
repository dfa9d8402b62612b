"""Tier-1 checks of the ledger itself, at ``--smoke`` size.

Nothing here asserts a timing: only that the ledger's output has the
declared shape, that its names agree with ``BENCHMARK.json``, that
tracing is exact (same digest, consistent spans) and leaves ``src/repro``
as it found it, and that ``compare.py`` applies the bounds.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import os
import re
import subprocess
import sys

import pytest

from ledger import compare, trace, workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def ledger(tmp_path_factory) -> dict:
    """One ``run.py --smoke`` over every workload, both modes."""
    out = tmp_path_factory.mktemp("ledger") / "ledger.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--out", str(out)],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_declares_within_the_limits(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["ledger"]
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in bench[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_registry_and_benchmark_json_list_the_same_names(bench):
    # run.py is a script, not a module of the package: load it by path.
    spec = importlib.util.spec_from_file_location(
        "ledger_run", os.path.join(HERE, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    declared = {m["name"] for m in bench["per_layer"]}
    assert set(workloads.COUNT_METRICS) <= declared
    assert {f"{owner}.tick_self_s" for owner in trace.TICK_OWNERS} <= declared


def test_ledger_output_has_the_declared_shape(ledger, bench):
    assert ledger["schema"] == "ledger-v1"
    for key in ("commit", "python", "nproc", "affinity", "loadavg_start",
                "loadavg_end"):
        assert key in ledger["env"]
    assert set(ledger["workloads"]) == {w["name"] for w in bench["workloads"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    for name, entry in ledger["workloads"].items():
        untraced, traced = entry["untraced"], entry["traced"]
        assert untraced["correct"] and traced["correct"], name
        assert untraced["ops_attempted"] >= 2 and untraced["ops_failed"] == 0
        assert isinstance(untraced["drift"], bool)
        assert untraced["cpus"] >= 1
        assert all(re.fullmatch(r"[0-9a-f]{64}", digest)
                   for digest in untraced["sim_digest"].values())
        assert set(untraced["sim_digest"]) == set(untraced["counts"])
        for spec in bench["end_to_end"]:
            metric = untraced["end_to_end"][spec["name"]]
            assert {k: metric[k] for k in spec} == spec
            assert metric["value"] > 0, (name, spec["name"])
            assert metric["n"] == len(metric["samples"]) >= 1
            assert metric["q1"] <= metric["q3"]
        assert set(traced["per_layer"]) == per_layer
        assert all(isinstance(m["value"], (int, float))
                   for m in traced["per_layer"].values())
        assert traced["per_layer"]["sim.engine.events"]["value"] > 0
        assert traced["per_layer"]["trace.overhead_ratio"]["value"] > 0
        assert os.path.exists(os.path.join(ROOT, traced["trace_file"]))


def test_layers_show_up_where_the_glossary_says(ledger):
    def layer(workload: str, metric: str) -> float:
        return ledger["workloads"][workload]["traced"]["per_layer"][
            metric]["value"]

    assert layer("stream-270", "net.loss.is_lost_self_s") == 0
    assert layer("adverse-270", "net.loss.is_lost_self_s") > 0
    assert layer("adverse-270", "net.network.dropped_dead") > 0
    assert layer("adverse-270", "membership.peer_sampling.tick_self_s") > 0
    assert layer("swarm-1k", "membership.peer_sampling.tick_self_s") == 0
    assert layer("swarm-1k-shards2", "net.shard.wire_bytes") > 0
    assert layer("swarm-1k", "net.shard.wire_bytes") == 0
    assert layer("grid-sweep", "experiments.parallel.cells") == 4
    assert layer("service-jobs", "service.jobs.warm_resubmit_ms_p50") > 0
    for workload in ("stream-270", "adverse-270", "swarm-1k"):
        assert 0 < layer(workload, "sim.engine.unattributed_share") < 1


def test_tracing_is_exact_and_restores_the_originals():
    from repro.net.latency import PairwiseLatency
    from repro.net.network import Network
    from repro.net.router import InprocRouter
    from repro.sim.engine import Simulator
    from repro.sim.timers import OneShotTimer, PeriodicTimer

    watched = [(Simulator, "run"), (Network, "send"), (Network, "send_many"),
               (InprocRouter, "route"), (InprocRouter, "deliver_bucket"),
               (PairwiseLatency, "sample"), (PeriodicTimer, "__init__"),
               (OneShotTimer, "__init__")]
    before = [vars(cls)[attr] for cls, attr in watched]
    untraced = workloads.run_cell(workloads.stream_270(7, smoke=True))
    tracer = trace.Tracer()
    with trace.installed(tracer):
        assert vars(Network)["send"] is not before[1]
        traced = tracer.call(trace.ROOT, workloads.run_cell,
                             workloads.stream_270(7, smoke=True), tracer)
    assert all(now is then for now, then in
               zip((vars(cls)[attr] for cls, attr in watched), before))
    assert traced["digest"] == untraced["digest"]
    assert traced["counts"] == untraced["counts"]

    assert tracer.violations() == []
    spans = {span[0]: span for span in tracer.raw}
    for span_id, _name, start, end, parent_id in tracer.raw:
        if parent_id >= 0:
            assert spans[parent_id][2] <= start <= end <= spans[parent_id][3]
    root = tracer.total_s(trace.ROOT)
    self_sum = sum(entry[2] for entry in tracer.totals.values())
    assert abs(self_sum - root) <= 0.01 * root
    assert tracer.count("sim.engine.run") == 1
    assert tracer.count("handler:") > 0 and tracer.count("timer:") > 0


def test_compare_applies_the_bounds(ledger, tmp_path, capsys):
    base = tmp_path / "a.json"
    base.write_text(json.dumps(ledger))
    assert compare.main([str(base), str(base)]) == 0

    slower = copy.deepcopy(ledger)
    metric = slower["workloads"]["stream-270"]["untraced"]["end_to_end"][
        "events_per_s"]
    for key in ("value", "q1", "q3"):
        metric[key] /= 3
    metric["samples"] = [v / 3 for v in metric["samples"]]
    changed = tmp_path / "b.json"
    changed.write_text(json.dumps(slower))
    assert compare.main([str(base), str(changed)]) == 1
    assert "regressed" in capsys.readouterr().out

    other = copy.deepcopy(ledger)
    other["workloads"]["swarm-1k"]["untraced"]["sim_digest"]["0"] = "0" * 64
    changed.write_text(json.dumps(other))
    assert compare.main([str(base), str(changed)]) == 1
    assert "sim_digest differs" in capsys.readouterr().out
