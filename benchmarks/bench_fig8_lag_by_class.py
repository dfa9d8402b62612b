"""Figure 8: average stream lag to obtain a jitter-free stream, by class.

Paper: HEAP drastically reduces the lag for all capability classes on
both ref-691 (8a) and ms-691 (8b), and the benefit grows with the skew
of the distribution (std reaches ~45 s on ms-691's poor class).
"""

import math

from _harness import emit, measure_plan

from repro.analysis.stats import mean
from repro.experiments.figures import fig8_lag_by_class


def bench_fig8_lag_by_class(benchmark):
    fig = measure_plan(benchmark, fig8_lag_by_class)
    emit(fig)
    data = fig.extra["data"]
    for panel in ("8a", "8b"):
        std = data[(panel, "standard")]
        heap = data[(panel, "heap")]
        # HEAP's mean lag is no worse than standard's for every class...
        for label in std:
            if math.isfinite(std[label]):
                assert heap[label] <= std[label] + 0.5
        # ...and clearly better on average.
        assert mean(heap.values()) <= mean(std.values())
