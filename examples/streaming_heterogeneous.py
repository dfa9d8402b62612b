#!/usr/bin/env python3
"""Head-to-head: HEAP vs standard gossip on a skewed swarm.

Reproduces the paper's headline scenario in miniature: the ms-691
distribution ("dist1"), where 85% of nodes upload at 512 kbps — *below*
the 600 kbps stream rate — and only 5% have 3 Mbps.  Standard gossip
spreads load uniformly and congests the poor majority; HEAP shifts
serving onto the rich tail by scaling fanouts with capability.

    python examples/streaming_heterogeneous.py [--nodes N] [--seconds S]
"""

import argparse

from repro import ScenarioConfig, run_scenario
from repro.metrics import (
    jitter_free_fraction_by_class,
    mean_lag_by_class,
    utilization_by_class,
)
from repro.metrics.report import ascii_table, format_percent, format_seconds
from repro.workloads import MS_691


def run(protocol: str, nodes: int, seconds: float, seed: int):
    return run_scenario(ScenarioConfig(
        protocol=protocol, n_nodes=nodes, duration=seconds, drain=40.0,
        distribution=MS_691, seed=seed))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=120)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--lag", type=float, default=6.0,
                        help="playback lag for quality metrics (seconds)")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    print(f"ms-691: average {MS_691.average_bps() / 1024:.0f} kbps, "
          f"CSR {MS_691.csr(600 * 1024):.2f} — barely above the stream rate.\n")

    results = {}
    for protocol in ("standard", "heap"):
        print(f"Running {protocol}...")
        results[protocol] = run(protocol, args.nodes, args.seconds, args.seed)

    rows = []
    for protocol, result in results.items():
        quality = jitter_free_fraction_by_class(result, args.lag)
        lag = mean_lag_by_class(result)
        util = utilization_by_class(result)
        for label in result.class_labels():
            rows.append([protocol, label, format_percent(quality[label]),
                         format_seconds(lag[label]),
                         format_percent(util[label])])

    print()
    print(ascii_table(
        ["protocol", "class", f"jitter-free@{args.lag:g}s", "mean lag",
         "uplink usage"],
        rows, title="HEAP vs standard gossip on ms-691"))

    heap_fanouts = {}
    heap = results["heap"]
    for node_id in heap.receiver_ids():
        heap_fanouts.setdefault(heap.label_of(node_id), []).append(
            heap.nodes[node_id].fanout)
    print("\nHEAP adapted fanouts (Equation 1: f_p = f * b_p / b_avg):")
    for label, values in sorted(heap_fanouts.items(),
                                key=lambda kv: sum(kv[1]) / len(kv[1])):
        print(f"  {label:>8}: mean {sum(values) / len(values):4.1f} "
              f"(n={len(values)})")
    avg = sum(sum(v) for v in heap_fanouts.values()) / sum(
        len(v) for v in heap_fanouts.values())
    print(f"  population average: {avg:.2f} (configured base fanout: "
          f"{heap.config.gossip.fanout:g})")


if __name__ == "__main__":
    main()
