"""Figure 5: stream quality by class on ref-691, 10 s lag.

Paper: with standard gossip, low-capability nodes get only ~18% of
windows jitter-free; HEAP lifts them above 90% — "HEAP allows high
capability nodes to assist low capability ones".
"""

from _harness import emit, measure_plan

from repro.experiments.figures import fig5_quality_ref691


def bench_fig5_quality_ref691(benchmark):
    fig = measure_plan(benchmark, fig5_quality_ref691)
    emit(fig)
    data = fig.extra["data"]
    # HEAP at least matches standard for every class, and strictly helps
    # the poorest class whenever standard leaves room.
    for label in data["standard"]:
        assert data["heap"][label] >= data["standard"][label] - 1.0
    assert data["heap"]["256kbps"] >= 90.0
