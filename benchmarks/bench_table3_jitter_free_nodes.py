"""Table 3: percentage of nodes receiving a jitter-free stream, by class.

Paper: the starkest table — standard gossip serves a jitter-free stream
to 0% of the poorest class on both reference distributions and to 0% of
*every* class on ms-691 even at 20 s lag, while HEAP reaches 62-97%
everywhere.
"""

from _harness import emit, measure_plan

from repro.analysis.stats import mean
from repro.experiments.tables import table3_jitter_free_nodes


def bench_table3_jitter_free_nodes(benchmark):
    table = measure_plan(benchmark, table3_jitter_free_nodes)
    emit(table)
    data = table.extra["data"]
    for dist in ("ref-691", "ref-724", "ms-691"):
        std = data[(dist, "standard")]
        heap = data[(dist, "heap")]
        # HEAP reaches at least as many nodes in every class...
        for label in std:
            assert heap[label] >= std[label] - 1.0
        # ...and a clear majority overall.
        assert mean(heap.values()) >= 60.0
