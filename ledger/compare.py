"""Compare two ledgers: the one place bounds are applied.

    python3 ledger/compare.py A.json B.json

``A`` is the base (the parent commit), ``B`` the change.  Per (workload,
end-to-end metric) prints both medians, quartiles and sample counts and
one of

* ``ok`` — B's median is not worse than A's by more than the bound, or
  every sample of B reads better than every sample of A;
* ``regressed`` — B's median is worse by more than the bound and the
  spread of the samples is within the bound (or every sample of B reads
  worse than every sample of A);
* ``unresolved`` — the spread (q3 - q1 over the median, the wider of the
  two files) exceeds the bound, so these two files cannot tell.

Exact counts and ``sim_digest`` are compared exactly for every operation
both files ran with the same seed, ``ops_failed / ops_attempted`` may not
rise, and per-layer metrics are listed side by side.  Every ratio is
printed with its base.  Exits non-zero on any regression or exact
mismatch.
"""

from __future__ import annotations

import json
import sys


def worsening(a: dict, b: dict) -> float:
    """How much worse b's value is than a's, as a share of a's."""
    if a["value"] == 0:
        return 0.0
    delta = b["value"] - a["value"]
    return (-delta if a["better"] == "higher" else delta) / abs(a["value"])


def relative_spread(metric: dict) -> float:
    if metric["value"] == 0:
        return 0.0
    return (metric["q3"] - metric["q1"]) / abs(metric["value"])


def separated(a: dict, b: dict) -> int:
    """+1 when every sample of b is better than every sample of a, -1
    when every one is worse, 0 when they overlap."""
    higher = a["better"] == "higher"
    if min(b["samples"]) > max(a["samples"]):
        return 1 if higher else -1
    if max(b["samples"]) < min(a["samples"]):
        return -1 if higher else 1
    return 0


def verdict(a: dict, b: dict) -> str:
    side = separated(a, b)
    worse = worsening(a, b) > a["bound"]
    if side > 0:
        return "ok"
    if side < 0 and worse:
        return "regressed"
    if max(relative_spread(a), relative_spread(b)) > a["bound"]:
        return "unresolved"
    return "regressed" if worse else "ok"


def quartiles_of(metric: dict) -> str:
    return f"[{metric['q1']:.4f}, {metric['q3']:.4f}] n={metric['n']}"


def compare_end_to_end(name: str, a: dict, b: dict) -> int:
    bad = 0
    for metric, ma in a["end_to_end"].items():
        mb = b["end_to_end"].get(metric)
        if mb is None:
            print(f"  {metric}: missing from B")
            bad += 1
            continue
        status = verdict(ma, mb)
        bad += status == "regressed"
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print(f"  {metric:<26}{status:<11}"
              f"A {ma['value']:.4f} {quartiles_of(ma)}  "
              f"B {mb['value']:.4f} {quartiles_of(mb)}  "
              f"B/A {ratio:.4f} "
              f"(base A = {ma['value']:.4f} {ma['unit']}, "
              f"{ma['better']} is better, bound {ma['bound']:.0%})")
    fa = a["ops_failed"] / a["ops_attempted"]
    fb = b["ops_failed"] / b["ops_attempted"]
    status = "regressed" if fb > fa else "ok"
    bad += fb > fa
    print(f"  {'ops_failed/ops_attempted':<26}{status:<11}"
          f"A {a['ops_failed']}/{a['ops_attempted']}  "
          f"B {b['ops_failed']}/{b['ops_attempted']}")
    for flag in ("correct", "drift"):
        print(f"  {flag:<26}{'':<11}A {a[flag]}  B {b[flag]}")
    bad += not b["correct"]
    return bad


def compare_exact(a: dict, b: dict) -> int:
    """Digest and exact counters of every operation both files ran."""
    common = sorted(set(a["sim_digest"]) & set(b["sim_digest"]), key=int)
    bad = 0
    for op in common:
        if a["sim_digest"][op] != b["sim_digest"][op]:
            print(f"  op {op}: sim_digest differs  A {a['sim_digest'][op]}  "
                  f"B {b['sim_digest'][op]}")
            bad += 1
        for counter, value in a["counts"][op].items():
            other = b["counts"][op].get(counter)
            if other != value:
                print(f"  op {op}: {counter} differs  A {value}  B {other}")
                bad += 1
    print(f"  {'exact counts + sim_digest':<26}"
          f"{'MISMATCH' if bad else 'identical':<11}"
          f"over {len(common)} common operations")
    return bad


def compare_per_layer(a: dict, b: dict) -> None:
    for metric, ma in a["per_layer"].items():
        mb = b["per_layer"].get(metric, {"value": 0})
        if not ma["value"] and not mb["value"]:
            continue
        ratio = (f"{mb['value'] / ma['value']:.4f}" if ma["value"]
                 else "n/a")
        print(f"  {metric:<44}A {ma['value']:<14.6g} B {mb['value']:<14.6g}"
              f" B/A {ratio} (base A, {ma['unit']})")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        a = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        b = json.load(fh)
    print(f"A: {argv[0]} commit {a['env']['commit']} seed {a['seed']} "
          f"load {a['env']['loadavg_start']:.2f}->"
          f"{a['env'].get('loadavg_end', 0):.2f}")
    print(f"B: {argv[1]} commit {b['env']['commit']} seed {b['seed']} "
          f"load {b['env']['loadavg_start']:.2f}->"
          f"{b['env'].get('loadavg_end', 0):.2f}")
    same_inputs = (a["seed"], a["smoke"]) == (b["seed"], b["smoke"])
    bad = 0
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            print(f"{name}: missing from B")
            bad += 1
            continue
        if "untraced" in wa and "untraced" in wb:
            print(f"{name} [end-to-end] cpus A {wa['untraced'].get('cpus')} "
                  f"B {wb['untraced'].get('cpus')}")
            bad += compare_end_to_end(name, wa["untraced"], wb["untraced"])
            if same_inputs:
                bad += compare_exact(wa["untraced"], wb["untraced"])
            else:
                print("  exact counts + sim_digest  skipped: the files "
                      "ran different seeds or sizes")
        if "traced" in wa and "traced" in wb:
            print(f"{name} [per-layer]")
            compare_per_layer(wa["traced"], wb["traced"])
    print("REGRESSION" if bad else "no regression")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
