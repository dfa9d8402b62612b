"""Memory pin: a node's per-packet state costs a few bytes, not a dict
entry.

Each node keeps one store slot, one request mark and one delivery time
per stream packet.  As a list, a bytearray and an ``array('d')`` indexed
by packet id that is 17 bytes per (node, packet); the dict, set and dict
of boxed floats they replaced cost about 118 here (measured on CPython
3.11 with this very config).  The slope between two stream lengths
cancels every cost that does not grow with the stream; what the stream
adds that all nodes share (packet objects, publish times) is spread over
the nodes and accounts for the rest of the ~30 bytes read here.
"""

import gc
import tracemalloc

from repro.experiments.runner import build_scenario
from repro.workloads.distributions import REF_691
from repro.workloads.scenario import ScenarioConfig

NODES = 20
BYTES_PER_NODE_PACKET = 32


def _peak_bytes(seconds):
    config = ScenarioConfig(protocol="heap", n_nodes=NODES, duration=seconds,
                            drain=0.5, distribution=REF_691, seed=3)
    gc.collect()
    tracemalloc.start()
    try:
        build = build_scenario(config)
        build.sim.run(until=config.end_time)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, len(build.publish_times)


def test_per_node_packet_cost_is_a_few_bytes():
    short_peak, short_packets = _peak_bytes(2.0)
    long_peak, long_packets = _peak_bytes(20.0)
    assert (short_packets, long_packets) == (110, 1100)
    per_node_packet = ((long_peak - short_peak)
                       / (NODES * (long_packets - short_packets)))
    assert per_node_packet <= BYTES_PER_NODE_PACKET, per_node_packet
