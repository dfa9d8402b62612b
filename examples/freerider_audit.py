#!/usr/bin/env python3
"""Freeriders in HEAP, and what a gossip audit can (and cannot) catch.

HEAP's §5 worry made concrete: plant freeriders in a swarm and run the
decentralized audit alongside the stream.

Two attacks:
* ``nonserve``   — answer only 20% of requests.  Caught: every requester
  observes the answered/asked ratio first hand, and gossiped audit
  reports accumulate into convictions with high precision.
* ``underclaim`` — advertise 10% of true capability to the aggregation
  protocol.  Evades the ratio audit entirely (the behaviour is
  self-consistent) and is only visible as a low contribution *volume* —
  indistinguishable from honest poverty without bandwidth proofs.

    python examples/freerider_audit.py [--mode nonserve|underclaim]
"""

import argparse

from repro import ScenarioConfig, run_scenario
from repro.adversary import AttackMix
from repro.freeriders.analysis import (
    contribution_index,
    convictions,
    detection_accuracy,
    honest_vs_freerider_contribution,
)
from repro.metrics import jitter_free_fraction_by_class
from repro.workloads import REF_691


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("nonserve", "underclaim"),
                        default="nonserve")
    parser.add_argument("--fraction", type=float, default=0.2)
    parser.add_argument("--nodes", type=int, default=80)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--seed", type=int, default=21)
    args = parser.parse_args()

    # The classic freerider study is a single-attack mix from the catalog.
    param = 0.2 if args.mode == "nonserve" else 0.1
    config = ScenarioConfig(
        protocol="heap", n_nodes=args.nodes, duration=args.seconds,
        drain=30.0, distribution=REF_691, seed=args.seed,
        adversary=AttackMix.single(args.mode, args.fraction, param),
        audit=True)
    print(f"{args.nodes} nodes, {args.fraction:.0%} {args.mode} freeriders, "
          f"audit gossip running on every node...\n")
    result = run_scenario(config)

    quality = jitter_free_fraction_by_class(result, 10.0)
    print("stream quality (jitter-free windows @10s):",
          {label: f"{value:.0f}%" for label, value in quality.items()})

    convicted = convictions(result)
    accuracy = detection_accuracy(result, convicted)
    print(f"\naudit verdicts: {len(convicted)} convicted of "
          f"{len(result.freerider_ids)} planted "
          f"(precision {accuracy.precision:.2f}, recall {accuracy.recall:.2f})")

    gap = honest_vs_freerider_contribution(result)
    print(f"contribution index (served/consumed): "
          f"honest {gap['honest']:.2f} vs freeriders {gap['freeriders']:.2f}")

    if args.mode == "underclaim" and accuracy.recall < 0.5:
        print("\nThe ratio audit is blind to under-claimers: they answer what"
              "\nthey are asked — they just arrange to be asked little.  Only"
              "\ntheir contribution volume betrays them, and that signal also"
              "\nflags honest poor nodes.  This is the open problem the paper"
              "\npoints at with its freerider-tracking follow-up work.")
        worst = sorted(result.freerider_ids,
                       key=lambda n: contribution_index(result, n))[:3]
        print("lowest-contribution freeriders:",
              {n: f"{contribution_index(result, n):.2f}" for n in worst})


if __name__ == "__main__":
    main()
