"""Figure 10: resilience to catastrophic failures (20% and 50% crashes).

Paper: with 20% (resp. 50%) of nodes crashing simultaneously, HEAP at a
12 s lag keeps delivering each window to ~all surviving nodes, with only
a transient drop around the failure; standard gossip at 20 s lag is far
below, and only approaches HEAP's quality at 30 s lag.
"""

from _harness import emit, measure_plan

from repro.experiments.figures import fig10_churn


def _assert_shape(fig, fraction):
    series = fig.extra["series"]
    at_time = fig.extra["failure_time"]
    survivors = 100.0 * (1.0 - fraction)

    def post_failure_avg(label):
        values = [f for _, t, f in series[label] if t > at_time + 15]
        return sum(values) / len(values) if values else 0.0

    heap = post_failure_avg("heap - 12s lag")
    std20 = post_failure_avg("standard - 20s lag")
    # HEAP keeps serving nearly all survivors after the crash...
    assert heap >= survivors * 0.9
    # ...and matches or beats standard gossip despite a *smaller* lag.
    assert heap >= std20 - 2.0


def bench_fig10a_churn_20(benchmark):
    fig = measure_plan(benchmark, fig10_churn, fraction=0.2)
    emit(fig)
    _assert_shape(fig, 0.2)


def bench_fig10b_churn_50(benchmark):
    fig = measure_plan(benchmark, fig10_churn, fraction=0.5)
    emit(fig)
    _assert_shape(fig, 0.5)
