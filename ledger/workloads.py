"""The ledger's workloads: inputs, one repetition, output checks, traced run.

Every workload object offers the same four steps to ``ledger.worker``:

* ``setup()`` — build what the measured section needs and run the warm-up
  repetition (rep 0); returns rep 0's sample;
* ``rep(i)`` — one measured operation, returned as a *sample* (see
  :func:`sample`); repetition ``i`` of seed ``S`` uses scenario seed
  ``1000*S + i``;
* ``verify(first)`` — the relational output checks against reference
  runs (name -> passed);
* ``traced(seconds, first)`` — the per-layer metrics of a traced run.

Load is closed-loop with a single generator everywhere: the next
repetition starts when the previous one returned.  Sizes are what fits
the benchmark's time cap (see README.md): populations are the issue's,
stream lengths are shortened.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pickle
import resource
import shutil
import statistics
import time
import traceback
from typing import Callable, Dict, List, Optional

from repro.adversary.mix import AttackMix
from repro.experiments.multi_seed import metric_offline_delivery
from repro.experiments.parallel import run_grid
from repro.experiments.runner import build_scenario
from repro.metrics.summary import standard_bundle, summarize
from repro.net.shard import (ShardRouter, merge_harvests, partition,
                             run_sharded, window_count)
from repro.workloads.churn import CatastrophicFailure
from repro.workloads.distributions import MS_691, REF_691
from repro.workloads.scenario import ScenarioConfig

from ledger import hostspeed, trace

clock = time.perf_counter

#: Busy processes never exceed this (closed loop, single generator).
CPUS = len(os.sched_getaffinity(0))
JOBS = min(2, CPUS)


def scenario_seed(seed: int, i: int) -> int:
    return 1000 * seed + i


def digest_of(value: object) -> str:
    """sha256 of the canonical JSON of ``value`` (the ``sim_digest``)."""
    blob = json.dumps(value, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def sample(wall_s: float, events: int, cells: int, digest: str,
           counts: Dict[str, int], **timings: float) -> dict:
    """One operation as the worker records it."""
    return {"wall_s": wall_s, "events": events, "cells": cells,
            "digest": digest, "counts": counts, "timings": timings}


def net_counts(result) -> Dict[str, int]:
    """The exact counters of one finished run (identical across commits
    unless a PR changes behaviour)."""
    stats = result.net.stats
    return {
        "sim.engine.events": result.sim.events_executed,
        "net.network.datagrams_sent": stats.sent,
        "net.network.bytes_sent": stats.bytes_sent,
        "net.network.datagrams_delivered": stats.delivered,
        "net.network.dropped_dead": stats.dropped_dead,
        "net.bandwidth.dropped_queue": stats.dropped_queue,
        "net.loss.datagrams_lost": stats.lost,
        "net.shard.wire_buffers": stats.wire_buffers,
        "net.shard.wire_envelopes": stats.wire_envelopes,
        "net.shard.wire_bytes": stats.wire_bytes,
        "net.shard.wire_payload_bytes_before": stats.wire_payload_bytes_before,
        "net.shard.wire_payload_bytes": stats.wire_payload_bytes,
    }


def median_of(samples: List[dict], timing: str) -> float:
    return statistics.median(s["timings"][timing] for s in samples)


def timed_reps(rep: Callable[[int], dict], seconds: float, at_least: int,
               first: int = 1, block: int = 1) -> List[dict]:
    """Closed-loop repetitions for about ``seconds`` (never fewer than
    ``at_least``), in blocks of ``block``: a block starts only while half
    of the previous one still fits.  Every block is bracketed by the
    host-speed kernel and its samples carry the ``host_speed`` they ran
    at.  Results are dropped and the heap collected between blocks,
    outside the timed regions; GC stays on inside them."""
    samples: List[dict] = []
    started = clock()
    last = 0.0
    before = hostspeed.kernel()
    while (len(samples) < at_least
           or clock() - started + 0.5 * last < seconds):
        block_started = clock()
        ran = [rep(first + len(samples) + k) for k in range(block)]
        last = clock() - block_started
        after = hostspeed.kernel()
        for one in ran:
            one["host_speed"] = hostspeed.speed(before, after)
        samples.extend(ran)
        before = after
        gc.collect()
    return samples


def measure(workload: "Workload", seconds: float, first: int) -> tuple:
    """A round's measured section: (ops, errors).  An exception is a
    failed op, recorded and counted, never fatal to the round."""
    ops, errors = [], []

    def rep(i: int) -> dict:
        try:
            op = workload.rep(i)
        except Exception:  # noqa: BLE001 - a failed op, not a failed run
            errors.append(traceback.format_exc())
            op = {"wall_s": 0.0, "ok": False}
        op["i"] = i
        ops.append(op)
        return op

    timed_reps(rep, seconds, workload.at_least, first, workload.block)
    return ops, errors


def corrected(op: dict) -> float:
    """The operation's wall at reference host speed."""
    return op["wall_s"] * op["host_speed"]


class Workload:
    """What every workload shares: the per-operation series behind the
    end-to-end metrics, peak memory, the trace file and a no-op
    ``close``."""

    #: Measured operations per round, at least.
    at_least = 2
    #: Operations between two host-speed probes.
    block = 1

    def series(self, ops: List[dict]) -> Dict[str, List[float]]:
        """One value per successful operation, in run order."""
        return {
            "events_per_s": [op["events"] / corrected(op) for op in ops],
            "cells_per_s": [op["cells"] / corrected(op) for op in ops],
            "latency_ms": [1e3 * corrected(op) for op in ops],
        }

    def peak_rss_mb(self) -> float:
        """Peak RSS of the workload's process tree, MiB: this process
        plus its largest waited-for child (``ru_maxrss`` is KiB on
        Linux)."""
        usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                 + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        return usage / 1024.0

    def write_trace(self, **body) -> None:
        """``trace-<workload>.json`` in the output directory."""
        path = os.path.join(self.out_dir, f"trace-{self.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": self.name, "seed": self.seed, **body}, fh)
            fh.write("\n")

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# scenario workloads: one cell = build + run + result() + summarize
# ----------------------------------------------------------------------
def stream_270(seed: int, smoke: bool) -> ScenarioConfig:
    return ScenarioConfig(name="stream-270", protocol="heap",
                          n_nodes=30 if smoke else 270, duration=1.0,
                          drain=1.0, distribution=REF_691, seed=seed)


def adverse_270(seed: int, smoke: bool) -> ScenarioConfig:
    # A fresh config per repetition: the churn object carries run state.
    return ScenarioConfig(
        name="adverse-270", protocol="heap", n_nodes=40 if smoke else 270,
        duration=0.7, drain=0.7, distribution=MS_691, membership="cyclon",
        loss_rate=0.03, loss_rng="per-pair", latency_rng="per-pair",
        audit=True, churn=CatastrophicFailure(0.2, at_time=2.35),
        adversary=AttackMix.single("spam", 0.1, victim_policy="high-degree"),
        seed=seed)


def swarm_1k(seed: int, smoke: bool, shards: int = 0) -> ScenarioConfig:
    return ScenarioConfig(
        name="swarm-1k", protocol="heap", n_nodes=60 if smoke else 1000,
        duration=0.2, drain=0.3, distribution=REF_691,
        latency_rng="per-pair", latency_floor=0.04, shards=shards, seed=seed)


def swarm_1k_shards2(seed: int, smoke: bool) -> ScenarioConfig:
    return swarm_1k(seed, smoke, shards=2)


def run_cell(config: ScenarioConfig,
             tracer: Optional[trace.Tracer] = None) -> dict:
    """One serial scenario cell, each phase timed from outside.

    With a tracer the same calls run inside spans (the wrappers must
    already be installed) and the dispatch tables are traced after the
    build."""
    def phase(name, fn, *args):
        return fn(*args) if tracer is None else tracer.call(name, fn, *args)

    t0 = clock()
    build = phase("experiments.runner.build_scenario", build_scenario, config)
    if tracer is not None:
        trace.wrap_dispatch(tracer, build.nodes)
    t1 = clock()
    build.sim.run(until=config.end_time)
    t2 = clock()
    result = phase("experiments.runner.result", build.result)
    t3 = clock()
    summary = phase("metrics.summary.summarize", summarize, result,
                    standard_bundle())
    t4 = clock()
    return sample(t4 - t0, result.sim.events_executed, 1, digest_of(summary),
                  net_counts(result), build_s=t1 - t0, run_s=t2 - t1,
                  result_s=t3 - t2, summarize_s=t4 - t3)


def run_sharded_cell(config: ScenarioConfig) -> dict:
    """One cell through the process-mode sharded driver."""
    t0 = clock()
    result = run_sharded(config, processes=True)
    t1 = clock()
    summary = summarize(result, standard_bundle())
    t2 = clock()
    return sample(t2 - t0, result.sim.events_executed, 1, digest_of(summary),
                  net_counts(result), run_sharded_s=t1 - t0,
                  summarize_s=t2 - t1)


def _harvest(index: int, owned, build) -> dict:
    """What ``merge_harvests`` needs from one shard of the mirror."""
    ids = sorted(owned)
    return {
        "shard": index,
        "logs": {i: build.nodes[i].log for i in ids},
        "uplinks": {i: build.net.uplink(i) for i in ids},
        "served": {i: getattr(build.nodes[i], "packets_served", 0)
                   for i in ids},
        "detectors": {i: build.detectors[i].snapshot() for i in ids
                      if i in build.detectors},
        "attacker_stats": {},
        "attackers": build.attackers,
        "crash_times": dict(build.crash_times),
        "stats": build.net.stats,
        "publish_times": build.publish_times,
        "labels": build.labels,
        "capacities": build.capacities,
        "freerider_ids": build.freerider_ids,
        "events_executed": build.sim.events_executed,
        "now": build.sim.now,
    }


def run_mirror(config: ScenarioConfig,
               tracer: Optional[trace.Tracer] = None) -> dict:
    """The windowed shard protocol driven in this process, built from the
    public pieces (``partition``, ``ShardRouter``,
    ``build_scenario(owned=, router=)``, ``merge_harvests``), with every
    step timed from outside.

    Per window the slowest shard gates the barrier, so compute, pack and
    inject add the per-window *maximum* over shards; every outbox goes
    through ``pickle.dumps`` + ``loads`` (what the pipe pays) and the
    *decoded* copy is what gets injected.  Only honest scenarios: the
    harvest carries no attacker counters.
    """
    shards = config.shards
    t0 = clock()
    parts = []
    build_times = []
    for index in range(shards):
        started = clock()
        owned = partition(config.n_nodes, shards, index)
        router = ShardRouter(owned, shards)
        build = build_scenario(config, owned=owned, router=router)
        if tracer is not None:
            trace.wrap_dispatch(tracer, build.nodes)
        build_times.append(clock() - started)
        parts.append((owned, router, build))
        # A real shard worker's collector never sees another replica:
        # keep this build out of the later builds' and windows' GC passes.
        gc.freeze()
    compute = compute_mean = pack = pickled = inject = 0.0
    windows = 0
    now, end, lookahead = 0.0, config.end_time, config.latency_floor
    while now < end:
        now = min(now + lookahead, end)
        windows += 1
        ran, packed, outboxes = [], [], []
        for _, router, build in parts:
            a = clock()
            build.sim.run(until=now)
            b = clock()
            outboxes.append(router.take_outboxes())
            c = clock()
            ran.append(b - a)
            packed.append(c - b)
        compute += max(ran)
        compute_mean += sum(ran) / shards
        pack += max(packed)
        injected = []
        for target, (_, router, _) in enumerate(parts):
            a = clock()
            inbound = [pickle.loads(pickle.dumps(
                outboxes[source][target], protocol=pickle.HIGHEST_PROTOCOL))
                for source in range(shards)]
            b = clock()
            for wires in inbound:
                router.inject(wires)
            c = clock()
            pickled += b - a
            injected.append(c - b)
        inject += max(injected)
    if windows != window_count(config):
        raise RuntimeError(f"mirror crossed {windows} windows, the sharded "
                           f"driver crosses {window_count(config)}")
    a = clock()
    result = merge_harvests(config, [_harvest(i, owned, build)
                                     for i, (owned, _, build)
                                     in enumerate(parts)])
    merge = clock() - a
    summary = summarize(result, standard_bundle())
    gc.unfreeze()
    return sample(clock() - t0, result.sim.events_executed, 1,
                  digest_of(summary), net_counts(result),
                  build_sum_s=sum(build_times), build_s=max(build_times),
                  compute_s=compute, compute_mean_s=compute_mean,
                  pack_s=pack, pickle_s=pickled, inject_s=inject,
                  merge_s=merge, windows=windows)


class ScenarioWorkload(Workload):
    """A scenario cell repeated under fresh seeds."""

    def __init__(self, name: str, config_for: Callable, seed: int,
                 smoke: bool, out_dir: str):
        self.name = name
        self.seed = seed
        self.smoke = smoke
        self.out_dir = out_dir
        self._config_for = config_for
        self.sharded = config_for(0, smoke).shards > 1
        self.extra: Dict[str, object] = {"cpus": CPUS}

    def config(self, i: int, **overrides) -> ScenarioConfig:
        config = self._config_for(scenario_seed(self.seed, i), self.smoke)
        return config.with_(**overrides) if overrides else config

    def setup(self) -> dict:
        return self.rep(0)

    def rep(self, i: int) -> dict:
        if self.sharded:
            return run_sharded_cell(self.config(i))
        return run_cell(self.config(i))

    def verify(self, first: dict) -> Dict[str, bool]:
        checks = {"events_positive": first["events"] > 0}
        if self.sharded:
            serial = run_cell(self.config(0, shards=0))
            checks["sharded_equals_serial"] = (
                serial["digest"] == first["digest"])
        return checks

    # ------------------------------------------------------------------
    def traced(self, seconds: float, first: dict) -> dict:
        """Untraced repetitions for the timed-outside medians, then the
        rep-0 scenario once more under the tracer."""
        untraced = timed_reps(self.rep, seconds / 2, 3)
        tracer = trace.Tracer()
        if self.sharded:
            serial = run_cell(self.config(0, shards=0))
            plain = run_mirror(self.config(0))
            gc.collect()
            with trace.installed(tracer):
                traced = tracer.call(trace.ROOT, run_mirror, self.config(0),
                                     tracer)
            metrics = self._shard_metrics(untraced, first, serial, plain)
            metrics["trace.overhead_ratio"] = (traced["wall_s"]
                                               / plain["wall_s"])
            checks = {
                "sharded_equals_serial": first["digest"] == serial["digest"],
                "mirror_equals_serial": plain["digest"] == serial["digest"],
                "traced_equals_untraced":
                    traced["digest"] == serial["digest"],
            }
        else:
            with trace.installed(tracer):
                traced = tracer.call(trace.ROOT, run_cell, self.config(0),
                                     tracer)
            metrics = {metric: median_of(untraced, timing)
                       for timing, metric in _PHASE_METRIC.items()}
            metrics["trace.overhead_ratio"] = (
                traced["wall_s"]
                / statistics.median(s["wall_s"] for s in untraced))
            checks = {"traced_equals_untraced":
                      traced["digest"] == first["digest"]}
        violations = tracer.violations()
        checks["spans_consistent"] = not violations
        metrics.update(trace.layer_metrics(tracer))
        # Exact counters come from the untraced run of the same seed.
        counts = first["counts"]
        metrics.update({name: counts[name] for name in COUNT_METRICS})
        buckets = metrics["net.router.buckets"]
        metrics["net.router.envelopes_per_bucket"] = (
            counts["net.network.datagrams_delivered"] / buckets
            if buckets else 0.0)
        self.write_trace(scenario_seed=scenario_seed(self.seed, 0),
                         violations=violations, **tracer.to_jsonable())
        return {"metrics": metrics, "checks": checks, "samples": untraced}

    def _shard_metrics(self, untraced: List[dict], first: dict, serial: dict,
                       mirror: dict) -> Dict[str, float]:
        timing = mirror["timings"]
        counts = first["counts"]
        wall = statistics.median(s["wall_s"] for s in untraced)
        critical = sum(timing[k] for k in ("build_s", "compute_s", "pack_s",
                                           "pickle_s", "inject_s", "merge_s"))
        after = counts["net.shard.wire_payload_bytes"]
        return {
            "experiments.runner.build_s": timing["build_sum_s"],
            "sim.engine.run_s": timing["compute_s"],
            "metrics.summary.summarize_s": median_of(untraced, "summarize_s"),
            "net.shard.windows": timing["windows"],
            "net.shard.payload_interning_ratio":
                counts["net.shard.wire_payload_bytes_before"] / after
                if after else 0.0,
            "net.shard.build_s": timing["build_s"],
            "net.shard.compute_s": timing["compute_s"],
            "net.shard.compute_imbalance":
                timing["compute_s"] / timing["compute_mean_s"],
            "net.shard.pack_s": timing["pack_s"],
            "net.shard.pickle_s": timing["pickle_s"],
            "net.shard.inject_s": timing["inject_s"],
            "net.shard.merge_s": timing["merge_s"],
            "net.shard.critical_path_s": critical,
            "net.shard.sync_overhead_s":
                median_of(untraced, "run_sharded_s") - critical,
            # Base: the serial cell of the same seed-0 scenario.
            "net.shard.speedup_vs_serial": serial["wall_s"] / wall,
        }


_PHASE_METRIC = {"build_s": "experiments.runner.build_s",
                 "run_s": "sim.engine.run_s",
                 "result_s": "experiments.runner.result_s",
                 "summarize_s": "metrics.summary.summarize_s"}

#: Exact counters that are per-layer metrics under their own name.
COUNT_METRICS = (
    "sim.engine.events", "net.network.datagrams_sent",
    "net.network.bytes_sent", "net.network.datagrams_delivered",
    "net.network.dropped_dead", "net.bandwidth.dropped_queue",
    "net.loss.datagrams_lost", "net.shard.wire_buffers",
    "net.shard.wire_envelopes", "net.shard.wire_bytes")


# ----------------------------------------------------------------------
# grid-sweep: small cells, so orchestration is the visible cost
# ----------------------------------------------------------------------
class GridWorkload(Workload):
    """``run_grid`` over [heap, standard] x seeds with checkpointing."""

    name = "grid-sweep"

    def __init__(self, seed: int, smoke: bool, out_dir: str):
        self.seed = seed
        self.n_seeds = 2 if smoke else 8
        self.n_nodes = 20 if smoke else 50
        self.tmp = os.path.join(out_dir, f"tmp-grid-{os.getpid()}")
        self.out_dir = out_dir
        self.extra: Dict[str, object] = {"cpus": CPUS, "jobs": JOBS}

    @property
    def cells(self) -> int:
        return 2 * self.n_seeds

    def _run(self, i: int, jobs: int, progress=None, tag: str = "rep") -> dict:
        """One grid over repetition ``i``'s seeds, as a sample."""
        configs = [ScenarioConfig(name=protocol, protocol=protocol,
                                  n_nodes=self.n_nodes, duration=2.0,
                                  drain=2.0, distribution=REF_691)
                   for protocol in ("heap", "standard")]
        base = 100 * scenario_seed(self.seed, i)
        checkpoint = os.path.join(self.tmp, f"{tag}-{i}.jsonl")
        t0 = clock()
        grid = run_grid(configs, list(range(base, base + self.n_seeds)),
                        {"delivery": metric_offline_delivery}, jobs=jobs,
                        summaries=standard_bundle(), checkpoint=checkpoint,
                        progress=progress)
        wall = clock() - t0
        records = [r for r in grid.records if r is not None]
        events = sum(r.events_executed for r in records)
        counts = {"sim.engine.events": events,
                  "experiments.parallel.cells": len(records),
                  "experiments.parallel.cell_failures": len(grid.failures),
                  "faults.pool.cell_retries": grid.cell_retries}
        out = sample(
            wall, events, len(records),
            digest_of([grid.render(), grid.determinism_keys(),
                       grid.summary_keys()]),
            counts, grid_wall_s=wall,
            cell_wall_sum_s=sum(r.wall_time for r in records),
            record_pickle_bytes=sum(len(pickle.dumps(r)) for r in records),
            checkpoint_bytes=os.path.getsize(checkpoint))
        out["ok"] = (not grid.failures and grid.cell_retries == 0
                     and len(records) == self.cells)
        return out

    def setup(self) -> dict:
        os.makedirs(self.tmp, exist_ok=True)
        return self.rep(0)

    def rep(self, i: int) -> dict:
        return self._run(i, JOBS)

    def verify(self, first: dict) -> Dict[str, bool]:
        serial = self._run(0, 1, tag="ref")
        return {"events_positive": first["events"] > 0,
                "no_cell_failures": first["ok"],
                "jobs_equal_serial": serial["digest"] == first["digest"]}

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def traced(self, seconds: float, first: dict) -> dict:
        """Grid spans come from the progress callback: one per cell."""
        serial = self._run(0, 1, tag="ref")
        untraced = timed_reps(self.rep, seconds / 3, 2)
        firsts: List[float] = []
        cell_spans: List[list] = []

        def traced_rep(i: int) -> dict:
            started = clock()
            arrivals: List[float] = []

            def progress(event) -> None:
                arrivals.append(clock() - started)
                cell_spans.append([i, event.record.scenario_name,
                                   event.record.seed, arrivals[-1],
                                   event.record.wall_time])

            out = self._run(i, JOBS, progress)
            firsts.append(arrivals[0])
            return out

        traced = timed_reps(traced_rep, seconds / 3, 2, first=0)
        cell = run_cell(ScenarioConfig(
            name="heap", protocol="heap", n_nodes=self.n_nodes, duration=2.0,
            drain=2.0, distribution=REF_691,
            seed=100 * scenario_seed(self.seed, 0)))
        wall = median_of(traced, "grid_wall_s")
        cell_sum = median_of(traced, "cell_wall_sum_s")
        last = traced[-1]
        metrics = {
            "experiments.parallel.grid_wall_s": wall,
            "experiments.parallel.cell_wall_sum_s": cell_sum,
            "experiments.parallel.first_cell_s": statistics.median(firsts),
            "experiments.parallel.serial_cells_per_s":
                self.cells / serial["wall_s"],
            # Base: the jobs=1 grid of the rep-0 seeds.
            "experiments.parallel.jobs_speedup": serial["wall_s"] / wall,
            "experiments.parallel.cells": last["cells"],
            "experiments.parallel.cell_failures":
                last["counts"]["experiments.parallel.cell_failures"],
            "experiments.parallel.record_pickle_bytes":
                last["timings"]["record_pickle_bytes"],
            "faults.pool.overhead_share": 1.0 - cell_sum / (JOBS * wall),
            "faults.pool.cell_retries":
                last["counts"]["faults.pool.cell_retries"],
            "metrics.export.checkpoint_bytes":
                last["timings"]["checkpoint_bytes"],
            "sim.engine.events": last["events"],
            "trace.overhead_ratio":
                wall / median_of(untraced, "grid_wall_s"),
        }
        for timing, metric in _PHASE_METRIC.items():
            metrics[metric] = cell["timings"][timing]
        self.write_trace(columns=["rep", "scenario", "seed",
                                  "arrived_after_s", "cell_wall_s"],
                         cells=cell_spans)
        checks = {"no_cell_failures": all(s["ok"] for s in traced + untraced),
                  "jobs_equal_serial": first["digest"] == serial["digest"],
                  "traced_equals_untraced":
                      traced[0]["digest"] == first["digest"]}
        return {"metrics": metrics, "checks": checks,
                "samples": untraced + traced}


SCENARIOS = {"stream-270": stream_270, "adverse-270": adverse_270,
             "swarm-1k": swarm_1k, "swarm-1k-shards2": swarm_1k_shards2}

#: Every workload the ledger runs, in report order.
WORKLOADS = (*SCENARIOS, "grid-sweep", "service-jobs")


def make(name: str, seed: int, smoke: bool, out_dir: str):
    """The workload object behind ``name``."""
    if name in SCENARIOS:
        return ScenarioWorkload(name, SCENARIOS[name], seed, smoke, out_dir)
    if name == "grid-sweep":
        return GridWorkload(seed, smoke, out_dir)
    if name == "service-jobs":
        from ledger.service import ServiceWorkload

        return ServiceWorkload(seed, smoke, out_dir)
    raise ValueError(f"unknown workload {name!r}; known: "
                     f"{', '.join(WORKLOADS)}")
