"""One round of one workload in this (fresh) process.

``ledger/run.py`` starts ``python -m ledger.worker`` once per round, one
at a time, and reads the JSON object this prints as its last line.  An
untraced round is: set-up (imports, inputs, warm-up rep 0, service boot)
-> measured closed-loop repetitions for ``--seconds`` -> on round 0, the
reference runs behind the relational output checks.  A traced round
reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import statistics
import sys
import time

from ledger import hostspeed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--smoke", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() when the runner started us")
    args = parser.parse_args(argv)

    # The runner's timeout arrives as SIGTERM: exit through the finally
    # blocks so the workload's own children are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    load_start = os.getloadavg()
    # Set-up is timed from the runner's spawn to the end of setup() and
    # bracketed by the host-speed kernel like any operation, so the
    # imports of the program happen here, inside the bracket.
    # The first kernel run of a process is cold: take the second.
    hostspeed.kernel()
    probe = hostspeed.kernel()
    from ledger import workloads

    os.makedirs(args.out_dir, exist_ok=True)
    workload = workloads.make(args.workload, args.seed, bool(args.smoke),
                              args.out_dir)
    out = {"workload": args.workload, "round": args.round,
           "extra": workload.extra}
    try:
        first = workload.setup()
        gc.collect()
        raw_setup = time.time() - args.spawned_at - 2 * probe
        out["setup_host_speed"] = hostspeed.speed(probe, hostspeed.kernel())
        out["setup_raw_s"] = raw_setup
        out["setup_s"] = raw_setup * out["setup_host_speed"]
        out["first"] = {"digest": first["digest"], "counts": first["counts"]}
        if args.trace:
            traced = workload.traced(args.seconds, first)
            out["metrics"] = traced["metrics"]
            out["metrics"]["ledger.host_speed"] = statistics.median(
                op["host_speed"] for op in traced["samples"])
            out["checks"] = traced["checks"]
            ops, errors = traced["samples"], []
        else:
            # Rounds draw disjoint rep indices, so a run sees fresh
            # scenario seeds in every round; rep 0 is every round's
            # warm-up and must digest identically in all of them.
            ops, errors = workloads.measure(workload, args.seconds,
                                            first=1 + 100 * args.round)
            out["series"] = workload.series(
                [op for op in ops if op.get("ok", True)])
        # Before the reference runs: they are the harness's, not the
        # workload's.
        out["peak_rss_mb"] = workload.peak_rss_mb()
        if not args.trace:
            out["checks"] = workload.verify(first) if args.round == 0 else {}
    finally:
        workload.close()
    out["ops_attempted"] = len(ops)
    out["ops_failed"] = sum(1 for op in ops if not op.get("ok", True))
    out["errors"] = errors
    out["ops"] = [{key: op.get(key) for key in
                   ("i", "wall_s", "host_speed", "events", "digest",
                    "counts", "warm")}
                  for op in ops]
    out["loadavg"] = [load_start[0], os.getloadavg()[0]]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
