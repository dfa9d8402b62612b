"""Figure 4: average bandwidth usage by bandwidth class.

Paper (4a ref-691): standard gossip 88.8 / 76.4 / 55.8 % for the
256k/768k/2M classes; HEAP 68.1 / 73.1 / 72.1 % — near-equal.
Paper (4b ms-691): standard 88.3 / 79.7 / 40.8 (rich under-utilized);
HEAP 79.0 / 74.7 / 71.1.

Shape targets: under standard gossip utilization *decreases* with
capability (poor saturated, rich idle); under HEAP the spread across
classes shrinks.
"""

from _harness import emit, measure_plan

from repro.experiments.figures import fig4_bandwidth_usage


def bench_fig4_bandwidth_usage(benchmark):
    fig = measure_plan(benchmark, fig4_bandwidth_usage)
    emit(fig)
    usage = fig.extra["usage"]

    for panel, poor, rich in (("4a", "256kbps", "2Mbps"),
                              ("4b", "512kbps", "3Mbps")):
        std = usage[(panel, "standard")]
        heap = usage[(panel, "heap")]
        # Standard: the poor class works at least as hard as the rich one.
        assert std[poor] >= std[rich] - 1.0
        # HEAP: the utilization spread across classes shrinks vs standard.
        std_spread = max(std.values()) - min(std.values())
        heap_spread = max(heap.values()) - min(heap.values())
        assert heap_spread <= std_spread + 1.0
