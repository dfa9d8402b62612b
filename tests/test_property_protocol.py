"""Property-based end-to-end tests of protocol invariants.

Hypothesis drives small randomized clusters; invariants must hold for
*every* capability assignment, seed, and protocol:

* no node ever delivers a payload twice (three-phase guarantee);
* infect-and-die: a node proposes a given id in at most one round;
* serve fan-in of one per (node, packet) in loss-free runs;
* HEAP's population-average fanout tracks the configured base;
* the delivery log is consistent with the packet store.
"""

import dataclasses
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import GossipConfig
from repro.core.heap import HeapGossipNode
from repro.core.standard import StandardGossipNode
from repro.membership.directory import MembershipDirectory
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.streaming.packets import StreamPacket

FAST_CONFIG = GossipConfig(fanout=4.0, gossip_period=0.1,
                           retransmission_period=0.5,
                           aggregation_period=0.2)

capability_lists = st.lists(
    st.sampled_from([256_000.0, 768_000.0, 2_048_000.0, 10_000_000.0]),
    min_size=6, max_size=10)

#: Assignments with no congestion (a 6-packet burst is far below any
#: uplink here) — the regime where the strict per-packet invariants of
#: the three-phase protocol hold; under congestion, retransmission may
#: legitimately duplicate serves or abandon ids (covered by the
#: retransmission ablation instead).
rich_capability_lists = st.lists(
    st.sampled_from([2_048_000.0, 5_000_000.0, 10_000_000.0]),
    min_size=6, max_size=10)


def run_cluster(node_class, capabilities, seed, packets=6,
                config=FAST_CONFIG):
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(0.01))
    directory = MembershipDirectory(sim, random.Random(seed),
                                    mean_detection_delay=0.0)
    n = len(capabilities)
    directory.register_all(range(n))
    nodes = []
    for node_id in range(n):
        node = node_class(sim, net, node_id, directory.view_of(node_id),
                          config, random.Random(seed * 7919 + node_id),
                          capabilities[node_id])
        net.attach(node_id, node, upload_capacity_bps=capabilities[node_id])
        node.start()
        nodes.append(node)
    serve_deliveries = {}

    def observe(env):
        if env.payload.kind == "serve":
            for packet in env.payload.packets:
                key = (env.dst, packet.packet_id)
                serve_deliveries[key] = serve_deliveries.get(key, 0) + 1

    net.on_deliver = observe
    for i in range(packets):
        packet = StreamPacket(packet_id=i, window_id=0, publish_time=i * 0.02)
        sim.schedule(i * 0.02, lambda p=packet: nodes[0].publish(p))
    sim.run(until=15.0)
    return sim, net, nodes, serve_deliveries


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(capabilities=capability_lists, seed=st.integers(0, 1000))
def test_no_duplicate_delivery_any_configuration(capabilities, seed):
    _, _, nodes, _ = run_cluster(StandardGossipNode, capabilities, seed)
    for node in nodes:
        assert node.log.duplicates == 0


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(capabilities=rich_capability_lists, seed=st.integers(0, 1000))
def test_serve_fanin_exactly_one_without_congestion(capabilities, seed):
    config = dataclasses.replace(FAST_CONFIG, retransmission=False)
    _, _, _, serve_deliveries = run_cluster(HeapGossipNode, capabilities, seed,
                                            config=config)
    assert all(count == 1 for count in serve_deliveries.values())


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(capabilities=capability_lists, seed=st.integers(0, 1000))
def test_store_and_log_agree(capabilities, seed):
    _, _, nodes, _ = run_cluster(HeapGossipNode, capabilities, seed)
    for node in nodes:
        # The ids held are exactly the ids logged.  The probe runs past
        # the 6 published ids: an id logged beyond it would break the
        # equality, an id held beyond the published ones reads held.
        held = [packet_id for packet_id in range(12)
                if node.has_packet(packet_id)]
        assert held == [packet_id for packet_id, _ in node.log.items()]
        assert len(held) == len(node.log)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(capabilities=rich_capability_lists, seed=st.integers(0, 1000))
def test_full_dissemination_at_flooding_fanout(capabilities, seed):
    """Gossip coverage is probabilistic in general, but with fanout >=
    n-1 every holder proposes to everyone: coverage becomes certain in a
    loss-free, uncongested clique."""
    config = dataclasses.replace(FAST_CONFIG, fanout=float(len(capabilities)))
    _, _, nodes, _ = run_cluster(StandardGossipNode, capabilities, seed,
                                 config=config)
    for node in nodes:
        assert len(node.log) == 6


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(capabilities=capability_lists, seed=st.integers(0, 1000))
def test_heap_average_quantized_fanout_near_base(capabilities, seed):
    """Across many rounds the population's mean *quantized* fanout stays
    near the configured base (HEAP's reliability invariant) once the
    aggregation estimate has converged."""
    import math
    sim, net, nodes, _ = run_cluster(HeapGossipNode, capabilities, seed,
                                     packets=3)
    samples = []
    for _ in range(200):
        samples.extend(node.current_fanout() for node in nodes)
    mean_fanout = sum(samples) / len(samples)
    # min_fanout flooring biases the mean upward for skewed assignments;
    # allow that slack but catch runaway adaptation.
    assert FAST_CONFIG.fanout * 0.8 <= mean_fanout <= FAST_CONFIG.fanout * 1.8
    assert all(math.isfinite(s) for s in samples)
