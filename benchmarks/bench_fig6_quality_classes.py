"""Figure 6: stream quality by class on ms-691 (6a) and ref-724 (6b).

Paper 6a: standard gossip leaves even the *rich* class below 33%
jitter-free on the skewed distribution; HEAP lifts every class above
95%.  Paper 6b: with more headroom (ref-724), the whole system benefits
from contribution-proportional serving (47% -> 93% for the poor class).
"""

from _harness import emit, measure_plan

from repro.experiments.figures import fig6_quality_classes


def bench_fig6_quality_classes(benchmark):
    fig = measure_plan(benchmark, fig6_quality_classes)
    emit(fig)
    for dist_name in ("ms-691", "ref-724"):
        data = fig.extra[dist_name]
        for label in data["standard"]:
            assert data["heap"][label] >= data["standard"][label] - 1.0
    # The skewed distribution: HEAP keeps every class in good shape.
    assert min(fig.extra["ms-691"]["heap"].values()) >= 90.0
