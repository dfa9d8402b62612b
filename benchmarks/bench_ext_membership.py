"""Extension: HEAP over decentralized membership (Cyclon partial views).

The paper's protocols assume a uniform random peer sampler and use full
membership on PlanetLab to get one.  Shape target: replacing the global
directory with Cyclon's shuffled partial views changes little — gossip's
reliability only needs approximately-uniform sampling, so HEAP ports to
a fully decentralized deployment.
"""

from _harness import emit, measure_plan

from repro.experiments.extensions import ext_membership


def _seconds(cell: str) -> float:
    if cell in ("never", "n/a"):
        return float("inf")
    return float(cell.rstrip("s"))


def bench_ext_membership(benchmark):
    table = measure_plan(benchmark, ext_membership)
    emit(table)
    lag = {(row[0], row[1]): _seconds(row[3]) for row in table.rows}
    reach = {(row[0], row[1]): row[2] for row in table.rows}
    # Cyclon HEAP reaches essentially everyone...
    reached, total = (int(x) for x in reach[("cyclon", "heap")].split("/"))
    assert reached >= 0.95 * total
    # ...at a lag comparable to the full-membership run.
    assert lag[("cyclon", "heap")] <= lag[("directory", "heap")] * 1.5 + 0.5
