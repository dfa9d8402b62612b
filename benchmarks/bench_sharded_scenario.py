"""Benchmark: one large (1k-node) scenario, serial vs sharded execution.

The grid engine parallelizes *across* runs; the sharded engine
(:mod:`repro.net.shard`) parallelizes *within* one by partitioning the
node population over worker shards with conservative window
synchronization.  This bench measures single-scenario event throughput
at 1, 2 and 4 shards on the same paper-scale-plus HEAP scenario, and
verifies that the shard counts all produce byte-identical metric
summaries (the engine's determinism contract) while measuring.

Run with pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_sharded_scenario.py

The smoke benchmark (``smoke_throughput.py``) runs the same workload
without the harness and records a ``sharding`` section in
``BENCH_throughput.json``.  Shard speedup is bounded by the host's
cores: on a 1-CPU runner the extra processes and window barriers can
only cost, and the recorded numbers will honestly say so.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
from _harness import measure  # noqa: E402

#: The bench scenario: 1k nodes (the population the ROADMAP names for
#: intra-scenario sharding), short stream so the smoke bench stays
#: CI-sized.  ``latency_floor`` doubles as the shard lookahead.
SCENARIO = dict(protocol="heap", n_nodes=1000, duration=1.0, drain=2.0,
                seed=17, latency_rng="per-pair", latency_floor=0.04)


def _config(shards: int = 0):
    from repro.workloads.distributions import REF_691
    from repro.workloads.scenario import ScenarioConfig

    return ScenarioConfig(distribution=REF_691, shards=shards, **SCENARIO)


def summary_blob(result) -> str:
    from repro.metrics.summary import standard_bundle, summarize

    return json.dumps(summarize(result, standard_bundle()), sort_keys=True)


def run_serial():
    """The 1-shard baseline: the plain in-process run."""
    from repro.experiments.runner import run_scenario

    return run_scenario(_config())


def run_with_shards(shards: int, processes: bool = True):
    """The same scenario partitioned across ``shards`` worker shards."""
    from repro.net.shard import run_sharded

    return run_sharded(_config(shards), processes=processes)


def n_windows(shards: int = 2) -> int:
    """Window barriers the sharded bench scenario crosses."""
    from repro.net.shard import window_count

    return window_count(_config(shards))


def bench_sharded_serial(benchmark):
    """Baseline: the full 1k-node scenario in one process."""
    result = measure(benchmark, run_serial)
    assert result.sim.events_executed > 0


def bench_sharded_two_shards(benchmark):
    """Two worker shards with windowed cross-shard exchange."""
    result = measure(benchmark, run_with_shards, 2)
    assert summary_blob(result) == summary_blob(run_serial())


def bench_sharded_four_shards(benchmark):
    """Four worker shards with windowed cross-shard exchange."""
    result = measure(benchmark, run_with_shards, 4)
    assert result.sim.events_executed > 0
