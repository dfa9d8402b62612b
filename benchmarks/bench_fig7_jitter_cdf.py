"""Figure 7: CDF of nodes vs experienced jitter (ref-691).

Paper: at a 10 s lag most windows are jittered under standard gossip,
while "with HEAP and a stream lag of 10 s, 93% of the nodes experience
less than 10% jitter"; viewed offline, standard gossip eventually
delivers (its offline curve is far better than its 10 s curve).
"""

from _harness import emit, measure_plan

from repro.experiments.figures import fig7_jitter_cdf


def bench_fig7_jitter_cdf(benchmark):
    fig = measure_plan(benchmark, fig7_jitter_cdf)
    emit(fig)
    cdfs = fig.extra["cdfs"]
    at_lag = "10s lag"
    # HEAP at 10s: the overwhelming majority of nodes below 10% jitter.
    assert cdfs[f"heap - {at_lag}"].fraction_at(10.0) >= 0.9
    # HEAP dominates standard at the same lag.
    assert (cdfs[f"heap - {at_lag}"].fraction_at(10.0)
            >= cdfs[f"standard - {at_lag}"].fraction_at(10.0) - 0.01)
    # Offline, standard gossip recovers most of the stream eventually.
    assert (cdfs["standard - offline"].fraction_at(10.0)
            >= cdfs[f"standard - {at_lag}"].fraction_at(10.0) - 0.01)
