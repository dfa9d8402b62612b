"""CI gate for the cross-shard wire-batching contract.

Runs one fixed sharded scenario over real worker processes and fails
(exit 1) unless:

* the ``NetworkStats`` cross-shard wire counters are present and
  populated (buffers, envelopes, serialized bytes, payload bytes
  before/after interning, membership control rows — the scenario
  includes a mid-stream catastrophic failure so crash announcements
  actually ride the buffers);
* the packed window buffers shipped strictly fewer serialized bytes
  than the PR 4 per-envelope wire format did on the same traffic.  That
  format is deleted; what it shipped for this exact scenario is frozen
  below as a constant;
* interning deduplicated payload bytes, and the before-interning counter
  (what per-envelope pickling would ship) still reads its frozen value.

Byte counters are deterministic, so this is a hard equality/inequality
gate, not a wall-clock threshold::

    PYTHONPATH=src python benchmarks/check_wire_batching.py
"""

from __future__ import annotations

import argparse
import sys

SHARDS = 2

#: What the per-envelope wire format (one pickled tuple per datagram)
#: shipped for the scenario below; the packed path shipped 2,866,970
#: bytes.  Measured at a9ff8a0, Python 3.11.
PER_ENVELOPE_WIRE_BYTES = 5_530_901
PER_ENVELOPE_ENVELOPES = 26_537
PER_ENVELOPE_PAYLOAD_BYTES = 4_104_319


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--serial-driver", action="store_true",
                        help="use the in-process windowed driver instead "
                             "of worker processes (1-CPU hosts)")
    args = parser.parse_args(argv)

    from repro.net.shard import run_sharded, window_count
    from repro.workloads.churn import CatastrophicFailure
    from repro.workloads.distributions import REF_691
    from repro.workloads.scenario import ScenarioConfig

    config = ScenarioConfig(protocol="heap", n_nodes=120, duration=3.0,
                            drain=6.0, seed=7, distribution=REF_691,
                            latency_rng="per-pair", latency_floor=0.02,
                            churn=CatastrophicFailure(fraction=0.1,
                                                      at_time=3.5),
                            shards=SHARDS)
    batched = run_sharded(config, processes=not args.serial_driver)
    b = batched.net.stats.wire_summary()
    windows = window_count(config)

    print(f"{'counter':<32} {'batched':>12}")
    for key, value in b.items():
        print(f"{key:<32} {value:>12,}")
    print(f"{'bytes per window':<32} {round(b['bytes'] / windows):>12,}")
    print(f"{'per-envelope bytes (frozen)':<32} "
          f"{PER_ENVELOPE_WIRE_BYTES:>12,}")

    failures = []
    for key, value in b.items():
        if value <= 0:
            failures.append(f"wire counter {key!r} is not populated "
                            f"(= {value})")
    if b["envelopes"] != PER_ENVELOPE_ENVELOPES:
        failures.append(f"traffic changed: {b['envelopes']} envelopes "
                        f"crossed the partition, the frozen per-envelope "
                        f"numbers are for {PER_ENVELOPE_ENVELOPES}")
    expected_controls = len(batched.crash_times) * (SHARDS - 1)
    if b["control_rows"] != expected_controls:
        failures.append(
            f"expected {expected_controls} control rows "
            f"({len(batched.crash_times)} victims x {SHARDS - 1} peer "
            f"shards), counted {b['control_rows']}")
    if b["bytes"] >= PER_ENVELOPE_WIRE_BYTES:
        failures.append(f"batching did not reduce serialized bytes "
                        f"({b['bytes']:,} >= {PER_ENVELOPE_WIRE_BYTES:,})")
    if b["payload_bytes_before_interning"] != PER_ENVELOPE_PAYLOAD_BYTES:
        failures.append(
            f"before-interning counter moved: "
            f"{b['payload_bytes_before_interning']:,} != "
            f"{PER_ENVELOPE_PAYLOAD_BYTES:,}")
    if (b["payload_bytes_after_interning"]
            >= b["payload_bytes_before_interning"]):
        failures.append("interning did not deduplicate any payload bytes")

    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nwire batching ok: {PER_ENVELOPE_WIRE_BYTES / b['bytes']:.2f}x "
          f"fewer serialized bytes over {windows} windows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
