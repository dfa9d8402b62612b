"""Table 2: average delivery rate inside windows that cannot be decoded.

Paper: on ms-691 HEAP's jittered windows still carry 80-91% of their
data versus 43-65% for standard gossip — even when HEAP fails to decode
a window it fails gracefully.  (On the reference distributions HEAP has
so few jittered windows that its averages can look arbitrary, as the
paper itself notes for ref-724's high-bandwidth class.)
"""

from _harness import emit, measure_plan

from repro.experiments.tables import table2_jittered_delivery


def bench_table2_jittered_delivery(benchmark):
    table = measure_plan(benchmark, table2_jittered_delivery)
    emit(table)
    data = table.extra["data"]
    for (dist, protocol), ratios in data.items():
        for value in ratios.values():
            assert 0.0 <= value <= 100.0
    # Shape (ms-691): HEAP's jittered windows are no worse on average.
    std = data[("ms-691", "standard")]
    heap = data[("ms-691", "heap")]
    assert sum(heap.values()) >= sum(std.values()) - 5.0
