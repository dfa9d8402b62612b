"""CI gate for the cross-shard wire-batching contract.

Runs one fixed sharded scenario over real worker processes and fails
(exit 1) unless:

* the ``NetworkStats`` cross-shard wire counters are present and
  populated (buffers, envelopes, serialized bytes, payload bytes
  before/after interning, membership control rows — the scenario
  includes a mid-stream catastrophic failure so crash announcements
  actually ride the buffers);
* the packed window buffers shipped strictly fewer serialized bytes
  per envelope than the PR 4 per-envelope wire format did.  That format
  is deleted; what it cost on this scenario is frozen below as bytes per
  envelope, so the gate survives a change to the scenario's random draws
  (which moves how many envelopes cross the partition, not what one
  costs);
* interning deduplicated payload bytes, and the before-interning counter
  (what per-envelope pickling would ship) still reads its frozen rate.

Byte counters are deterministic, so this is a hard gate on counts, not a
wall-clock threshold::

    PYTHONPATH=src python benchmarks/check_wire_batching.py
"""

from __future__ import annotations

import argparse
import sys

SHARDS = 2

#: What the per-envelope wire format (one pickled tuple per datagram)
#: cost on the scenario below, in bytes per envelope.  Measured at
#: a9ff8a0, Python 3.11: 5,530,901 wire and 4,104,319 payload bytes over
#: 26,537 envelopes (the packed path shipped 2,866,970 bytes for them).
PER_ENVELOPE_WIRE_BYTES = 208.4
PER_ENVELOPE_PAYLOAD_BYTES = 154.7
#: How far payload bytes per envelope may sit from the frozen rate: the
#: payload mix shifts a little with the traffic, the pickling does not.
PAYLOAD_RATE_TOLERANCE = 0.01


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
    envelopes = max(b["envelopes"], 1)  # 0 is reported as unpopulated
    wire_rate = b["bytes"] / envelopes
    payload_rate = b["payload_bytes_before_interning"] / envelopes
    print(f"{'bytes per window':<32} {round(b['bytes'] / windows):>12,}")
    print(f"{'bytes per envelope':<32} {wire_rate:>12.1f}")
    print(f"{'per-envelope format (frozen)':<32} "
          f"{PER_ENVELOPE_WIRE_BYTES:>12.1f}")

    failures = []
    for key, value in b.items():
        if value <= 0:
            failures.append(f"wire counter {key!r} is not populated "
                            f"(= {value})")
    expected_controls = len(batched.crash_times) * (SHARDS - 1)
    if b["control_rows"] != expected_controls:
        failures.append(
            f"expected {expected_controls} control rows "
            f"({len(batched.crash_times)} victims x {SHARDS - 1} peer "
            f"shards), counted {b['control_rows']}")
    if wire_rate >= PER_ENVELOPE_WIRE_BYTES:
        failures.append(f"batching did not reduce serialized bytes per "
                        f"envelope ({wire_rate:.1f} >= "
                        f"{PER_ENVELOPE_WIRE_BYTES:.1f})")
    if (abs(payload_rate - PER_ENVELOPE_PAYLOAD_BYTES)
            > PAYLOAD_RATE_TOLERANCE * PER_ENVELOPE_PAYLOAD_BYTES):
        failures.append(
            f"before-interning counter moved: {payload_rate:.1f} payload "
            f"bytes per envelope, frozen {PER_ENVELOPE_PAYLOAD_BYTES:.1f}")
    if (b["payload_bytes_after_interning"]
            >= b["payload_bytes_before_interning"]):
        failures.append("interning did not deduplicate any payload bytes")

    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nwire batching ok: {PER_ENVELOPE_WIRE_BYTES / wire_rate:.2f}x "
          f"fewer serialized bytes per envelope over {windows} windows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
