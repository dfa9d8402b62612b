"""Ablation: capping the adapted fanout (the superpeer concern).

The paper's §5 worries that adaptation "elevates certain wealthy nodes
to the rank of temporary superpeers".  A fanout cap bounds that role.
Shape targets: a generous cap (>= 2x the base fanout) costs nothing on
ms-691, while capping all the way down to the base fanout forfeits part
of HEAP's advantage — the rich tail can no longer absorb the load of
the 85% poor majority.
"""

from _harness import emit, measure_plan

from repro.experiments.ablations import ablation_fanout_cap


def _seconds(cell: str) -> float:
    if cell in ("never", "n/a"):
        return float("inf")
    return float(cell.rstrip("s"))


def bench_ablation_fanout_cap(benchmark):
    table = measure_plan(benchmark, ablation_fanout_cap)
    emit(table)
    lags = {row[0]: _seconds(row[2]) for row in table.rows}
    # A generous cap is indistinguishable from uncapped.
    assert lags["cap=21"] <= lags["uncapped"] * 1.3 + 0.5
    # Rich-node fanouts respect the cap.
    capped_fanout = float(table.rows[1][1])  # cap=10 row
    assert capped_fanout <= 10.0 + 0.5
