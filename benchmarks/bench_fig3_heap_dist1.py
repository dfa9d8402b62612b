"""Figure 3: HEAP on the skewed dist1 (ms-691), average fanout 7.

Paper: with the same constrained distribution that cripples standard
gossip, HEAP delivers 99% of the stream to 50% of nodes at 13.3 s,
75% at 14.1 s, 90% at 19.5 s.  Shape target: HEAP's lag CDF dominates
standard gossip's at every lag.
"""

from _harness import emit, measure_plan

from repro.experiments.figures import LAG_GRID, fig3_heap_dist1


def bench_fig3_heap_dist1(benchmark):
    fig = measure_plan(benchmark, fig3_heap_dist1)
    emit(fig)
    cdf = fig.extra["cdf"]
    # HEAP reaches ~all nodes within the lag budget the paper plots (60 s).
    assert cdf.fraction_at(60.0) > 0.95
    # The 50/75/90 percentiles exist and are ordered.
    p = fig.extra["percentiles"]
    assert p[0.5] <= p[0.75] <= p[0.9]
