"""Ablation: biasing the source's first-hop selection towards rich nodes.

The paper's §5: "our early experiments reveal that this can be
beneficial at the first step of the dissemination (i.e., from the
source) but reveals not trivial if performed in later steps".  This
bench sweeps the bias exponent of the source's capability-weighted
selector on the skewed ms-691.  Shape target mirrors the paper's mixed
verdict: the bias may trim the lag tail (rich first hops push fresh
packets into high-capacity fan-out immediately) but must not change the
outcome dramatically either way — it is a small, second-order knob.
"""

from _harness import emit, measure_plan

from repro.experiments.ablations import ablation_source_bias


def _seconds(cell: str) -> float:
    if cell in ("never", "n/a"):
        return float("inf")
    return float(cell.rstrip("s"))


def bench_ablation_source_bias(benchmark):
    table = measure_plan(benchmark, ablation_source_bias)
    emit(table)
    by_bias = {row[0]: _seconds(row[3]) for row in table.rows}
    # Second-order effect: within +-60% (plus slack for tiny scales) of
    # the unbiased lag, never a collapse.
    assert by_bias["bias=2"] <= by_bias["bias=0"] * 1.6 + 1.0
