"""Figure 2: fanout sweep under constrained heterogeneous uplinks.

Paper: on dist1 (ms-691) a fanout of 7 is poor, 15-20 helps, beyond 25
degrades again; on dist2 (uniform, same average) fanout 7 is optimal and
15-20 are *worse* — the good fanout range depends on the distribution,
so no single static fanout works.  Shape targets below assert the
U-shape on dist1 and the inversion on dist2.
"""

from _harness import emit, measure_plan

from repro.analysis.stats import mean
from repro.experiments.figures import fig2_fanout_sweep


def bench_fig2_fanout_sweep(benchmark):
    fig = measure_plan(benchmark, fig2_fanout_sweep)
    emit(fig)
    cdfs = fig.extra["cdfs"]

    def median_lag(label):
        return cdfs[label].percentile(0.5)

    # dist1: a moderate fanout increase improves on f=7 ...
    assert median_lag("f=15 dist1") <= median_lag("f=7 dist1") * 1.1
    # ... but a blind increase stops helping / hurts.
    assert median_lag("f=30 dist1") >= median_lag("f=15 dist1") * 0.9
    # dist2 (same average capability): large fanouts are not better than 7.
    assert median_lag("f=7 dist2") <= median_lag("f=20 dist2") * 1.1
