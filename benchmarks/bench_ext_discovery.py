"""Extension: join-time capability discovery (paper §2.2's heuristic).

Nodes start by advertising a deliberately low capability and slow-start
toward their real uplink.  Shape targets: by the end of the stream the
advertised values approach the truth, and the stream quality matches
the configured-capability baseline — discovery costs only a short ramp.
"""

from _harness import emit, measure_plan

from repro.experiments.extensions import ext_capability_discovery


def _seconds(cell: str) -> float:
    if cell in ("never", "n/a"):
        return float("inf")
    return float(cell.rstrip("s"))


def bench_ext_discovery(benchmark):
    table = measure_plan(benchmark, ext_capability_discovery)
    emit(table)
    rows = {row[0]: row for row in table.rows}
    configured_quality = float(rows["configured"][1].rstrip("%"))
    discovery_quality = float(rows["discovery"][1].rstrip("%"))
    assert discovery_quality >= configured_quality - 10.0
    # Advertised capabilities converged towards (or above) reality.
    assert float(rows["discovery"][3]) >= 0.5
