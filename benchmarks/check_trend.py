"""Performance-trend gate for the CI smoke benchmark.

Compares a freshly written ``BENCH_throughput.json`` against a reference
and fails (exit 1) when any tracked throughput number regresses below
``threshold`` of it::

    PYTHONPATH=src python benchmarks/smoke_throughput.py --out fresh.json
    python benchmarks/check_trend.py BENCH_throughput.json fresh.json \
        --history bench-history.jsonl

The reference is, per metric, the **median over the committed baseline
and the last ``--history-window`` runs** recorded in the history file —
so the gate tracks the performance trajectory across PRs instead of
pinning forever to whatever host measured the committed baseline.  With
no (or an empty) history file the gate degrades to the plain
baseline-only comparison.

When ``--history`` is given, the fresh run's tracked metrics are
appended to the file as one JSONL record *after* a passing gate, so a
regressing run never pollutes the history it failed against.  CI
persists the file across runs (actions/cache) and re-seeds it from the
committed baseline when the cache is cold.

The threshold is deliberately loose (default 0.5): shared CI runners
jitter by tens of percent, and the gate exists to catch the "accidental
10x" class of regression, not 5% noise.  The printed table is the
human-readable trend record either way.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: (json path, human label) of every gated higher-is-better metric.
#: Metrics absent from the reference (e.g. a section added by a newer
#: benchmark version) are skipped until the committed baseline or the
#: history carries them — a brand-new metric must never trip the gate on
#: its first run against a reference that predates it.  The ``sharding``
#: section is not gated: sharding is a parity-tested capability, not a
#: speed path.
TRACKED = [
    (("engine", "phased_post_events_per_sec"), "engine post() events/s"),
    (("engine", "phased_schedule_events_per_sec"),
     "engine schedule() events/s"),
    (("fanout", "send_many_events_per_sec"), "fanout send_many events/s"),
    (("scenario", "events_per_sec"), "scenario events/s"),
    (("per_pair", "latency_fresh_link_calls_per_sec"),
     "per-pair latency fresh links/s"),
    (("per_pair", "loss_fresh_link_calls_per_sec"),
     "per-pair loss fresh links/s"),
    # Deterministic (tracemalloc): links retained per MiB of model state.
    (("per_pair", "latency_links_per_mib"), "per-pair latency links/MiB"),
    (("per_pair", "loss_links_per_mib"), "per-pair loss links/MiB"),
    (("population", "nodes_built_per_sec_4k"), "4k-node build nodes/s"),
    # Deterministic (tracemalloc): nodes built per MiB the build retains.
    (("population", "nodes_per_mib_4k"), "4k-node build nodes/MiB"),
    # Peak RSS of ten consecutive 1k-node cells in one process, inverted:
    # it falls when finished cells' object graphs pile up uncollected.
    (("gc", "cell_processes_per_gib"), "10-cell worker processes/GiB"),
    (("attacks", "honest_events_per_sec"), "attack-bench honest events/s"),
    (("attacks", "spam_events_per_sec"), "attack-bench 10%-spam events/s"),
]


def _lookup(report: dict, path):
    value = report
    for key in path:
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return float(value)


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _read_history(path: str) -> list:
    """History records, oldest first; tolerant of a truncated last line."""
    if not os.path.exists(path):
        return []
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if lineno == len(lines) - 1:
                break  # a killed writer leaves a partial last line
            raise
    return records


def _append_history(path: str, fresh: dict) -> None:
    record = {"metrics": {}}
    for sha_var in ("GITHUB_SHA",):
        if os.environ.get(sha_var):
            record["sha"] = os.environ[sha_var]
    for path_keys, _ in TRACKED:
        value = _lookup(fresh, path_keys)
        if value is not None:
            record["metrics"][".".join(path_keys)] = value
    # A killed writer can leave a partial (unterminated) last line.
    # _read_history already ignores it, but only while it stays last —
    # appending behind it would crash every future read.  It is dead
    # data either way, so drop it before appending.
    if os.path.exists(path) and os.path.getsize(path) > 0:
        with open(path, "rb+") as fh:
            content = fh.read()
            if not content.endswith(b"\n"):
                keep = content.rfind(b"\n") + 1  # 0 when no newline at all
                fh.truncate(keep)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_throughput.json")
    parser.add_argument("fresh", help="freshly measured BENCH_throughput.json")
    parser.add_argument("--threshold", type=float, default=0.5,
                        help="fail when fresh < threshold * reference "
                             "(default 0.5)")
    parser.add_argument("--history", default=None,
                        help="JSONL file of prior runs; the gate compares "
                             "against the median of baseline + recent "
                             "history, and appends this run on success")
    parser.add_argument("--history-window", type=int, default=10,
                        help="number of most-recent history records to "
                             "include in the reference median (default 10)")
    args = parser.parse_args(argv)

    with open(args.baseline, encoding="utf-8") as fh:
        baseline = json.load(fh)
    with open(args.fresh, encoding="utf-8") as fh:
        fresh = json.load(fh)
    history = _read_history(args.history) if args.history else []
    recent = history[-args.history_window:] if history else []

    failures = []
    print(f"{'metric':<28} {'reference':>12} {'fresh':>12} {'ratio':>7}"
          f"  {'samples':>7}")
    for path, label in TRACKED:
        new = _lookup(fresh, path)
        if new is None:
            continue  # metric not produced by this benchmark version
        samples = []
        base = _lookup(baseline, path)
        if base is not None:
            samples.append(base)
        key = ".".join(path)
        for record in recent:
            value = record.get("metrics", {}).get(key)
            if value is not None:
                samples.append(float(value))
        if not samples:
            continue  # brand-new metric: nothing to compare against yet
        reference = _median(samples)
        ratio = new / reference if reference else float("inf")
        print(f"{label:<28} {reference:>12,.0f} {new:>12,.0f} {ratio:>6.2f}x"
              f"  {len(samples):>7}")
        if ratio < args.threshold:
            failures.append(f"{label}: {new:,.0f} < "
                            f"{args.threshold:.0%} of reference "
                            f"{reference:,.0f} "
                            f"(median of {len(samples)} samples)")
    if failures:
        print("\nFAIL: throughput regressed beyond the trend threshold:",
              file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    if args.history:
        _append_history(args.history, fresh)
        print(f"\ntrend ok ({len(history) + 1} record(s) in {args.history})")
    else:
        print("\ntrend ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
