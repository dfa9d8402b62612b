"""Ablation: request retransmission under datagram loss.

The paper pairs UDP with a retransmission mechanism (Algorithm 2) and
integrates it into both protocols for fairness.  Shape targets: without
loss, retransmission is inert (same delivery); with loss, disabling it
punches permanent holes in the stream (a lost request or serve strands
the ids in eRequested), while enabling it restores near-complete
delivery at a modest lag cost.
"""

from _harness import emit, measure_plan

from repro.experiments.ablations import ablation_retransmission


def bench_ablation_retransmission(benchmark):
    table = measure_plan(benchmark, ablation_retransmission)
    emit(table)
    delivery = {(row[0], row[1]): float(row[2].rstrip("%"))
                for row in table.rows}
    # No loss: retransmission does not change offline delivery materially.
    assert abs(delivery[("loss=0%", "on")] - delivery[("loss=0%", "off")]) < 1.0
    # 3% loss: retransmission recovers what its absence loses.
    assert delivery[("loss=3%", "on")] > delivery[("loss=3%", "off")]
    assert delivery[("loss=3%", "on")] > 99.0
