"""Smoke benchmark: simulator throughput + parallel-sweep scaling.

Runs the same workloads as ``bench_simulator_throughput.py`` without the
pytest-benchmark harness and writes a compact ``BENCH_throughput.json``
so CI can archive the performance trajectory across PRs::

    PYTHONPATH=src python benchmarks/smoke_throughput.py --jobs 4

The sweep section also *verifies* (not just measures) the parallel
engine's contract: the serial and ``--jobs N`` aggregates must be
byte-identical, or the script exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _best_of(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def bench_engine():
    """The bare event loop: 100 phased chains of 100 self-scheduling
    events (``bench_simulator_throughput.run_phased_chains``)."""
    from bench_simulator_throughput import run_phased_chains

    total = 100 * 100

    def run(enqueue):
        assert run_phased_chains(enqueue) == total

    schedule_s = _best_of(lambda: run("schedule"))
    post_s = _best_of(lambda: run("post"))
    return {
        "events": total,
        "phased_schedule_events_per_sec": round(total / schedule_s),
        "phased_post_events_per_sec": round(total / post_s),
    }


def bench_fanout(fanout: int = 16, rounds: int = 2000):
    """Unicast send loop vs multicast send_many on a fan-out workload.

    The speedup is self-relative (both paths measured back to back in
    this process), so it is robust to host noise in a way absolute
    events/s numbers are not.
    """
    from bench_fanout_send import run_send_loop, run_send_many

    events = rounds * fanout
    loop_s = _best_of(lambda: run_send_loop(rounds, fanout))
    many_s = _best_of(lambda: run_send_many(rounds, fanout))
    return {
        "fanout": fanout,
        "events": events,
        "send_loop_events_per_sec": round(events / loop_s),
        "send_many_events_per_sec": round(events / many_s),
        "send_many_speedup": round(loop_s / many_s, 2),
    }


def bench_scenario():
    """End-to-end cost of the reference small HEAP run (QUICK scale)."""
    from repro.experiments.runner import run_scenario
    from repro.experiments.scales import QUICK, scenario_at
    from repro.workloads.distributions import REF_691

    config = scenario_at(QUICK, protocol="heap", distribution=REF_691,
                         n_nodes=30, duration=5.0, drain=10.0)
    run_scenario(config)  # warm imports out of the timing
    started = time.perf_counter()
    result = run_scenario(config)
    wall = time.perf_counter() - started
    return {
        "events": result.sim.events_executed,
        "wall_seconds": round(wall, 4),
        "events_per_sec": round(result.sim.events_executed / wall),
    }


def bench_sharding():
    """Sharding's parity record on a 1k-node scenario at 1/2/4 shards.

    *Verifies* the sharded engine's contract: every shard count must
    produce byte-identical metric summaries.  Events/s and speedup are
    reported for the record — bounded by the host, and on a 1-CPU
    runner the window barriers and worker processes can only cost.  The
    trend gate tracks none of it: sharding is a byte-parity-tested
    capability, not a speed path.

    The ``wire_batching`` subsection records what crossed the shard
    boundary at 2 shards — one pickled buffer per (window, peer shard)
    — from the ``NetworkStats`` wire counters, which are deterministic.
    """
    from bench_sharded_scenario import (n_windows, run_serial,
                                        run_with_shards, summary_blob)

    section = {"n_nodes": 1000, "cpus": os.cpu_count()}
    started = time.perf_counter()
    serial = run_serial()
    serial_wall = time.perf_counter() - started
    events = serial.sim.events_executed
    section["events"] = events
    section["serial_events_per_sec"] = round(events / serial_wall)
    serial_summaries = summary_blob(serial)
    identical = True
    batched_stats = None
    for shards in (2, 4):
        started = time.perf_counter()
        result = run_with_shards(shards)
        wall = time.perf_counter() - started
        # Events/s uses the serial event count.  This scenario has no
        # churn, so the shards' counts sum to exactly that (every event
        # runs on one shard); only replicated churn adds events, once
        # per extra replica.
        section[f"shards_{shards}_events_per_sec"] = round(events / wall)
        section[f"shards_{shards}_speedup"] = round(serial_wall / wall, 2)
        identical = identical and summary_blob(result) == serial_summaries
        if shards == 2:
            batched_stats = result.net.stats
    windows = n_windows()
    section["wire_batching"] = {
        "shards": 2,
        "windows": windows,
        "wire_envelopes": batched_stats.wire_envelopes,
        "batched_buffers": batched_stats.wire_buffers,
        "batched_wire_bytes": batched_stats.wire_bytes,
        "batched_bytes_per_window": round(batched_stats.wire_bytes
                                          / windows),
    }
    section["summaries_byte_identical"] = identical
    return section


def bench_per_pair():
    """Per-link cost of the per-pair models on links they see first.

    At 1k nodes nearly every send opens a new directed link, so what a
    *fresh* link costs — seeding its stream, drawing once, and what stays
    allocated afterwards — is what the 1k-node rows above pay per
    datagram.  Calls/s is best-of-three wall clock; bytes per link is
    ``tracemalloc`` growth over the same calls, which is deterministic.
    ``links_per_mib`` is its higher-is-better form for the trend gate.
    """
    import tracemalloc

    from repro.net.latency import PerPairLatency
    from repro.net.loss import PerPairLoss

    # Both directions of some pairs and one of others, as a run has.
    links = [(src, dst) for src in range(0, 1000, 50)
             for dst in range(1000) if src != dst]

    def serve_each_link_once(call):
        for src, dst in links:
            call(src, dst)

    section = {"links": len(links)}
    for name, build in (
            ("latency", lambda: PerPairLatency(17).sample),
            ("loss", lambda: PerPairLoss(17, 0.03).is_lost)):
        wall = _best_of(lambda: serve_each_link_once(build()), repeats=3)
        tracemalloc.start()
        call = build()  # the bound method keeps its model alive
        serve_each_link_once(call)
        per_link = tracemalloc.get_traced_memory()[0] / len(links)
        tracemalloc.stop()
        section[f"{name}_fresh_link_calls_per_sec"] = round(len(links) / wall)
        section[f"{name}_bytes_per_link"] = round(per_link, 1)
        section[f"{name}_links_per_mib"] = round(2 ** 20 / per_link)
    return section


def bench_population():
    """What a population costs to *build*, apart from running it.

    ``build_scenario`` is timed on its own (best of three) and its
    retained memory is ``tracemalloc`` growth over one build, at 1k and
    4k nodes: both must grow with N, not N² — every directory view reads
    one shared roster, so a doubling of the population doubles the build.
    ``nodes_per_mib`` is the higher-is-better form of bytes per node for
    the trend gate; the run itself is the ``sharding`` section's business.
    """
    import tracemalloc

    from repro.experiments.runner import build_scenario
    from repro.workloads.distributions import REF_691
    from repro.workloads.scenario import ScenarioConfig

    section = {}
    for label, n_nodes in (("1k", 1000), ("4k", 4000)):
        config = ScenarioConfig(protocol="heap", n_nodes=n_nodes,
                                duration=0.2, drain=0.3, distribution=REF_691,
                                latency_rng="per-pair")
        wall = _best_of(lambda: build_scenario(config), repeats=3)
        tracemalloc.start()
        build = build_scenario(config)  # held, so its memory is counted
        per_node = tracemalloc.get_traced_memory()[0] / n_nodes
        tracemalloc.stop()
        del build
        section[f"build_seconds_{label}"] = round(wall, 4)
        section[f"nodes_built_per_sec_{label}"] = round(n_nodes / wall)
        section[f"bytes_per_node_{label}"] = round(per_node)
        section[f"nodes_per_mib_{label}"] = round(2 ** 20 / per_node, 1)
    return section


def _swarm_config(seed: int = 17):
    """1k nodes, half a simulated second: the ledger's ``swarm-1k`` shape."""
    from repro.workloads.distributions import REF_691
    from repro.workloads.scenario import ScenarioConfig

    return ScenarioConfig(protocol="heap", n_nodes=1000, duration=0.2,
                          drain=0.3, distribution=REF_691, seed=seed,
                          latency_rng="per-pair", latency_floor=0.04)


def _own_peak_rss_mib() -> float:
    """High-water mark of this process's own address space.  ``VmHWM``
    starts over at exec; ``ru_maxrss`` does not — a child reports at
    least what the process it was forked from held at that moment."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def ten_cells_child() -> None:
    """Body of ``bench_gc``'s child process: ten 1k-node cells through
    the grid engine's ``_run_cell``, one after the other, then this
    process's own high-water mark."""
    from repro.experiments.parallel import _run_cell

    started = time.perf_counter()
    events = 0
    for seed in range(1, 11):
        config = _swarm_config(seed)
        _, record = _run_cell((0, 0, config.name, 0, config, (), ()))
        events += record.events_executed
    wall = time.perf_counter() - started
    print(json.dumps({"events": events, "wall_seconds": wall,
                      "peak_rss_mib": _own_peak_rss_mib()}))


def bench_gc():
    """What the cyclic collector does during a run, and what cells leave.

    ``Simulator.run`` pauses the collector (a running simulation drops
    no reference cycles, so every pass would walk the heap and free
    nothing) and ``_run_cell`` collects a finished cell's object graph
    where it dies.  Two exact counts hold the first half — collector
    passes started during one 1k-node ``sim.run`` and unreachable
    objects found right after it, both expected 0 — and the peak RSS of
    ten consecutive 1k-node cells in one fresh child process holds the
    second: without the per-cell collection the graphs pile up.
    ``cell_processes_per_gib`` is that peak's higher-is-better form for
    the trend gate (how many such grid workers a GiB holds).
    """
    import gc
    import subprocess

    from repro.experiments.runner import build_scenario

    config = _swarm_config()
    gc.collect()  # earlier sections' dropped results are not this run's
    build = build_scenario(config)
    passes = []

    def on_gc(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.callbacks.append(on_gc)
    try:
        build.sim.run(until=config.end_time)
    finally:
        gc.callbacks.remove(on_gc)
    unreachable = gc.collect()  # the build is still held: only garbage counts
    events = build.sim.events_executed
    del build

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run(
        [sys.executable, "-c",
         "import smoke_throughput; smoke_throughput.ten_cells_child()"],
        env=env, check=True, stdout=subprocess.PIPE, text=True)
    cells = json.loads(child.stdout)
    return {
        "n_nodes": config.n_nodes,
        "events": events,
        "collector_passes_during_run": len(passes),
        "unreachable_after_run": unreachable,
        "ten_cells_events": cells["events"],
        "ten_cells_wall_seconds": round(cells["wall_seconds"], 3),
        "ten_cells_peak_rss_mib": round(cells["peak_rss_mib"], 1),
        "cell_processes_per_gib": round(1024 / cells["peak_rss_mib"], 1),
    }


def bench_attacks():
    """Honest vs 10%-spam scenario throughput, with attack shard parity.

    The spam attackers flood proposals past the fanout, so the attacked
    run executes genuinely more events — both absolute events/s numbers
    are tracked by the trend gate, and the ``spam_event_overhead`` ratio
    is self-relative (back-to-back in one process), host-noise-robust.

    Also *verifies* while measuring: the attacked scenario at 2 shards
    must produce byte-identical summaries and attack-impact blobs
    (attacker placement is a pure population-wide function, replicated
    per shard).
    """
    from bench_attack_sweep import (SPAM_FRACTION, attack_blob, run_honest,
                                    run_spam, run_spam_sharded)

    section = {"spam_fraction": SPAM_FRACTION}
    started = time.perf_counter()
    honest = run_honest()
    honest_wall = time.perf_counter() - started
    section["honest_events"] = honest.sim.events_executed
    section["honest_events_per_sec"] = round(
        honest.sim.events_executed / honest_wall)
    started = time.perf_counter()
    spam = run_spam()
    spam_wall = time.perf_counter() - started
    section["spam_events"] = spam.sim.events_executed
    section["spam_events_per_sec"] = round(
        spam.sim.events_executed / spam_wall)
    section["spam_event_overhead"] = round(
        spam.sim.events_executed / honest.sim.events_executed, 2)
    section["attackers"] = len(spam.attackers)
    sharded = run_spam_sharded(2)
    section["summaries_byte_identical"] = (
        attack_blob(sharded) == attack_blob(spam))
    return section


def bench_sweep(jobs: int):
    """8-seed, 2-scenario sweep: serial vs --jobs N, results verified equal."""
    from repro.experiments.multi_seed import metric_offline_delivery
    from repro.experiments.parallel import run_grid
    from repro.workloads.distributions import REF_691
    from repro.workloads.scenario import ScenarioConfig

    configs = [
        ScenarioConfig(name="heap", protocol="heap", n_nodes=30,
                       duration=5.0, drain=10.0, distribution=REF_691),
        ScenarioConfig(name="standard", protocol="standard", n_nodes=30,
                       duration=5.0, drain=10.0, distribution=REF_691),
    ]
    seeds = list(range(1, 9))
    metrics = {"delivery": metric_offline_delivery}

    serial = run_grid(configs, seeds, metrics, jobs=1)
    parallel = run_grid(configs, seeds, metrics, jobs=jobs)
    identical = (serial.determinism_keys() == parallel.determinism_keys()
                 and serial.render() == parallel.render())
    return {
        "scenarios": len(configs),
        "seeds": len(seeds),
        "jobs": jobs,
        #: Speedup is bounded by the host: expect ~min(jobs, cpus) minus
        #: pool overhead; on a 1-CPU box the pool can only cost, never win.
        "cpus": os.cpu_count(),
        "serial_wall_seconds": round(serial.wall_time, 4),
        "parallel_wall_seconds": round(parallel.wall_time, 4),
        "speedup": round(serial.wall_time / parallel.wall_time, 2),
        "aggregates_byte_identical": identical,
    }


def source_size():
    """How much source the behaviour above costs (tracked, not gated)."""
    import glob

    root = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")
    texts = {}
    for path in glob.glob(os.path.join(root, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            texts[path] = fh.read()
    return {
        "src_lines": sum(text.count("\n") for text in texts.values()),
        "cli_add_argument_calls":
            texts[os.path.join(root, "cli.py")].count("add_argument("),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int,
                        default=min(4, os.cpu_count() or 1),
                        help="worker processes for the sweep section")
    parser.add_argument("--out", default="BENCH_throughput.json")
    args = parser.parse_args(argv)

    report = {
        "benchmark": "simulator-throughput-smoke",
        "python": sys.version.split()[0],
        "engine": bench_engine(),
        "fanout": bench_fanout(),
        "scenario": bench_scenario(),
        "sweep": bench_sweep(args.jobs),
        "sharding": bench_sharding(),
        "per_pair": bench_per_pair(),
        "population": bench_population(),
        "gc": bench_gc(),
        "attacks": bench_attacks(),
        "source": source_size(),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    if not report["sweep"]["aggregates_byte_identical"]:
        print("FATAL: parallel sweep diverged from the serial run",
              file=sys.stderr)
        return 1
    if not report["sharding"]["summaries_byte_identical"]:
        print("FATAL: sharded scenario diverged from the serial run",
              file=sys.stderr)
        return 1
    if not report["attacks"]["summaries_byte_identical"]:
        print("FATAL: sharded attack scenario diverged from the serial run",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
