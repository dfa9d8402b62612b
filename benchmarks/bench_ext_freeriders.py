"""Extension: freeriding impact and the gossip audit (paper §5).

The paper warns that advertising capabilities "may trigger freeriding
vocations, where nodes would pretend to be poor in order not to
contribute", and announces a freerider-tracking protocol.  Shape
targets: request-droppers are convicted with high precision; capability
under-claimers evade the answered/asked audit (their behaviour is
self-consistent) while their contribution index betrays the shortfall;
stream quality for honest nodes degrades as freeriding grows.
"""

from _harness import emit, measure_plan

from repro.experiments.extensions import ext_freeriders


def bench_ext_freeriders(benchmark):
    table = measure_plan(benchmark, ext_freeriders)
    emit(table)
    by_key = {(row[0], row[1]): row for row in table.rows}

    nonserve_30 = by_key[("nonserve", "30%")]
    precision = float(nonserve_30[4].split()[0].split("=")[1])
    recall = float(nonserve_30[4].split()[1].split("=")[1])
    assert precision >= 0.9
    assert recall >= 0.5

    underclaim_30 = by_key[("underclaim", "30%")]
    evasion_recall = float(underclaim_30[4].split()[1].split("=")[1])
    assert evasion_recall <= 0.3  # consistent liars evade the ratio audit
    rider, honest = (float(x) for x in underclaim_30[5].split("/"))
    assert rider < 0.6 * honest  # but their contribution betrays them
