"""Figure 1: standard gossip, fanout 7, unconstrained uplinks.

Paper: 50% of nodes receive 99% of the stream within 1.3 s, 75% within
2.4 s, 90% within 21 s.  Shape target: with no bandwidth constraint the
lag CDF rises fast and high — gossip alone is a fine dissemination layer.
"""

import math

from _harness import emit, measure_plan

from repro.experiments.figures import fig1_unconstrained


def bench_fig1_unconstrained(benchmark):
    fig = measure_plan(benchmark, fig1_unconstrained)
    emit(fig)
    cdf = fig.extra["cdf"]
    percentiles = fig.extra["percentiles"]
    # Shape: the overwhelming majority reaches 99% delivery within seconds.
    assert cdf.fraction_at(10.0) > 0.9
    assert percentiles[0.5] < 5.0
    assert all(math.isfinite(v) for v in percentiles.values())
