"""The performance ledger's one command.

    python3 ledger/run.py [--workload NAME]... [--seed S] [--seconds N]
                          [--trace 0|1] [--out FILE]

Runs every selected workload in its **own fresh subprocess, one at a
time** (``python -m ledger.worker``), prints every metric by name with
unit, direction, sample count and bound, checks the outputs and writes
one JSON.  End-to-end numbers come from untraced rounds — three per
workload, each a fresh process that sets up, measures its share of
``--seconds`` and exits, so ``setup_s`` and ``peak_rss_mb`` are medians
of three.  A separate traced run gives the per-layer numbers.  Without
``--trace`` both are run.

With exactly one ``--workload`` and a ``--trace`` value the last line of
standard output is the benchmark-contract JSON object (``correct``,
``attempted``, ``failed``, ``metrics``).  Exits non-zero on a failed
output check, a failed operation or a worker that did not finish.

Names, units, directions and bounds are declared once, in
``BENCHMARK.json``; ``ledger/compare.py`` applies the bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Untraced rounds (fresh processes) per workload.
ROUNDS = 3
#: One invocation must end within the contract's 180 s.
DEADLINE_S = 170.0

#: End-to-end metric -> (worker series, reduction over the run's pooled
#: samples).  Every timed sample is at reference host speed (see
#: ledger/hostspeed.py).
END_TO_END = {
    "events_per_s": ("events_per_s", "p50"),
    "cells_per_s": ("cells_per_s", "p50"),
    "submit_to_result_ms_p50": ("latency_ms", "p50"),
    "submit_to_result_ms_p90": ("latency_ms", "p90"),
    "peak_rss_mb": ("peak_rss_mb", "p50"),
    "setup_s": ("setup_s", "p50"),
}


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def commit() -> str:
    """HEAD of the checkout, read without git (a driver checkout is not
    a repository: then ``unknown``)."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]),
                      encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def environment() -> dict:
    return {"commit": commit(), "python": sys.version.split()[0],
            "nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "loadavg_start": os.getloadavg()[0]}


def statistic(values, how: str) -> float:
    if how == "p90":
        return statistics.quantiles(values, n=10, method="inclusive")[8]
    return statistics.median(values)


def quartiles(values) -> tuple:
    """(q1, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def worker(name: str, seed: int, seconds: float, trace: int, round_: int,
           smoke: bool, out_dir: str, deadline: float) -> dict:
    """One ``ledger.worker`` process, run to completion and reaped."""
    env = dict(os.environ)
    # One interpreter hash seed for every worker: set and dict layouts,
    # and with them timings, do not vary from process to process.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT, os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, "-m", "ledger.worker", "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--round", str(round_),
               "--smoke", str(int(smoke)), "--out-dir", out_dir,
               "--spawned-at", repr(time.time())]
    process = subprocess.Popen(command, cwd=ROOT, env=env,
                               stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = process.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # SIGTERM first: the worker turns it into an exit that closes its
        # own children (service, shard workers, pool).
        process.terminate()
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        raise RuntimeError(f"{name}: worker exceeded the time limit")
    if process.returncode != 0:
        raise RuntimeError(f"{name}: worker exited with code "
                           f"{process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def untraced(name: str, seed: int, seconds: float, smoke: bool, out_dir: str,
             bench: dict, deadline: float) -> dict:
    """The end-to-end half: pooled rounds, reduced per metric."""
    rounds = 1 if smoke else ROUNDS
    results = [worker(name, seed, seconds / rounds, 0, r, smoke, out_dir,
                      deadline) for r in range(rounds)]
    pooled = {"setup_s": [r["setup_s"] for r in results],
              "peak_rss_mb": [r["peak_rss_mb"] for r in results]}
    for series in ("events_per_s", "cells_per_s", "latency_ms"):
        pooled[series] = [v for r in results for v in r["series"][series]]
    checks = dict(results[0]["checks"])
    checks["rep0_digest_same_in_every_round"] = len(
        {r["first"]["digest"] for r in results}) == 1
    metrics = {}
    drift = False
    for spec in bench["end_to_end"]:
        series, how = END_TO_END[spec["name"]]
        values = pooled[series]
        q1, q3 = quartiles(values) if len(values) > 1 else (values[0],) * 2
        metrics[spec["name"]] = {
            **spec, "value": statistic(values, how), "n": len(values),
            "q1": q1, "q3": q3, "samples": values}
        if series not in ("setup_s", "peak_rss_mb") and len(values) >= 4:
            half = len(values) // 2
            early = statistics.median(values[:half])
            late = statistics.median(values[-half:])
            drift = drift or abs(late - early) > spec["bound"] * early
    return {
        "correct": all(checks.values()),
        "ops_attempted": sum(r["ops_attempted"] for r in results),
        "ops_failed": sum(r["ops_failed"] for r in results),
        "drift": drift, "checks": checks, "end_to_end": metrics,
        **results[0]["extra"],
        "sim_digest": {"0": results[0]["first"]["digest"],
                       **{str(op["i"]): op["digest"]
                          for r in results for op in r["ops"]}},
        "counts": {"0": results[0]["first"]["counts"],
                   **{str(op["i"]): op["counts"]
                      for r in results for op in r["ops"]}},
        "host_speed": [op["host_speed"] for r in results for op in r["ops"]],
        "setup_raw_s": [r["setup_raw_s"] for r in results],
        "setup_host_speed": [r["setup_host_speed"] for r in results],
        "errors": [e for r in results for e in r["errors"]],
        "loadavg": [r["loadavg"] for r in results],
    }


def traced(name: str, seed: int, seconds: float, smoke: bool, out_dir: str,
           bench: dict, deadline: float) -> dict:
    """The per-layer half: every declared metric, 0 where the layer is
    not on this workload's path."""
    result = worker(name, seed, seconds, 1, 0, smoke, out_dir, deadline)
    names = {spec["name"] for spec in bench["per_layer"]}
    unknown = sorted(set(result["metrics"]) - names)
    if unknown:
        raise RuntimeError(f"{name}: undeclared per-layer metrics {unknown}")
    return {
        "correct": all(result["checks"].values()),
        "ops_attempted": result["ops_attempted"],
        "ops_failed": result["ops_failed"],
        "checks": result["checks"],
        "per_layer": {spec["name"]: {
            **spec, "value": result["metrics"].get(spec["name"], 0)}
            for spec in bench["per_layer"]},
        "trace_file": os.path.join(os.path.relpath(out_dir, ROOT),
                                   f"trace-{name}.json"),
        "loadavg": [result["loadavg"]],
    }


def show(name: str, mode: str, result: dict) -> None:
    print(f"{name} [{mode}] correct={result['correct']} "
          f"ops={result['ops_attempted']} failed={result['ops_failed']}"
          + (f" drift={result['drift']} cpus={result.get('cpus')} "
             f"sim_digest[0]={result['sim_digest']['0'][:16]}"
             if mode == "untraced" else ""))
    for check, passed in result["checks"].items():
        if not passed:
            print(f"  FAILED CHECK {check}")
    for metric in result.get("end_to_end", {}).values():
        print(f"  {metric['name']:<26}{metric['value']:>14.4f} "
              f"{metric['unit']:<9} {metric['better']:<6} n={metric['n']:<4}"
              f" q1={metric['q1']:.4f} q3={metric['q3']:.4f} "
              f"bound={metric['bound']:.0%}")
    for metric in result.get("per_layer", {}).values():
        print(f"  {metric['name']:<44}{metric['value']:>16.6g} "
              f"{metric['unit']:<8} {metric['better']}")


def main(argv=None) -> int:
    bench = declared()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: "
                             "BENCHMARK.json run_seconds; 0 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end only; 1: per-layer only; "
                             "default: both")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one round (the test's mode)")
    parser.add_argument("--out", default=None,
                        help="ledger JSON (default ledger/out/ledger.json)")
    args = parser.parse_args(argv)

    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else bench["run_seconds"]
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    selected = args.workload or names
    modes = (0, 1) if args.trace is None else (args.trace,)
    contract = len(selected) == 1 and args.trace is not None
    ledger = {"schema": "ledger-v1", "seed": args.seed,
              "seconds": args.seconds, "smoke": args.smoke,
              "env": environment(), "workloads": {}}
    failed = False
    last = None
    for name in selected:
        entry = ledger["workloads"][name] = {}
        for mode in modes:
            # Each (workload, mode) is one contract invocation's worth.
            deadline = time.monotonic() + DEADLINE_S
            run = traced if mode else untraced
            key = "traced" if mode else "untraced"
            try:
                last = entry[key] = run(name, args.seed, args.seconds,
                                        args.smoke, out_dir, bench, deadline)
            except RuntimeError as exc:
                print(f"FATAL: {exc}", file=sys.stderr)
                return 1
            show(name, key, last)
            failed = (failed or not last["correct"]
                      or last["ops_failed"] > 0)
    ledger["env"]["loadavg_end"] = os.getloadavg()[0]
    out_path = args.out or os.path.join(out_dir, "ledger.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if contract:
        metrics = last.get("end_to_end") or last["per_layer"]
        print(json.dumps({
            "correct": last["correct"],
            "attempted": last["ops_attempted"],
            "failed": last["ops_failed"],
            "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                        for name, m in metrics.items()}}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
