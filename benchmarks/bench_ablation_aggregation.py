"""Ablation: the aggregation protocol's accuracy/overhead trade-off.

HEAP's fanout adaptation is only as good as its estimate of the average
capability.  This bench varies the aggregation fanout and the number of
freshest samples exchanged, reporting estimate error, per-node overhead
and the resulting stream lag.  Expected shape: even the cheapest setting
(fanout 1, the paper's ~1 KB/s) estimates within a few percent, and the
stream quality is insensitive across the grid — the knob buys little,
which is why the paper can afford the marginal-cost configuration.
"""

from _harness import emit, measure_plan

from repro.experiments.ablations import ablation_aggregation


def bench_ablation_aggregation(benchmark):
    table = measure_plan(benchmark, ablation_aggregation)
    emit(table)
    errors = [float(row[2].rstrip("%")) for row in table.rows]
    # Every configuration estimates the average within 20%.
    assert all(err < 20.0 for err in errors)
