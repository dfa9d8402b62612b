"""Behavioural tests for the gossip dissemination nodes."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GossipConfig
from repro.core.heap import HeapGossipNode
from repro.core.messages import Propose, Request, Serve
from repro.core.standard import StandardGossipNode
from repro.membership.directory import MembershipDirectory
from repro.membership.view import LocalView
from repro.net.latency import ConstantLatency
from repro.net.loss import BernoulliLoss
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.streaming.packets import StreamPacket


BASE_CONFIG = GossipConfig(randomize_phase=False)


def packet(packet_id, publish_time=0.0):
    return StreamPacket(packet_id=packet_id, window_id=0,
                        publish_time=publish_time, size_bytes=1316)


def build_cluster(n, node_class=StandardGossipNode, config=BASE_CONFIG,
                  capability=10e6, latency=0.01, seed=0, loss=None):
    sim = Simulator()
    loss_model = loss(random.Random(seed + 999)) if loss else None
    net = Network(sim, latency=ConstantLatency(latency), loss=loss_model)
    directory = MembershipDirectory(sim, random.Random(seed), mean_detection_delay=0.0)
    directory.register_all(range(n))
    nodes = []
    for node_id in range(n):
        cap = capability(node_id) if callable(capability) else capability
        node = node_class(sim, net, node_id, directory.view_of(node_id),
                          config, random.Random(seed * 1000 + node_id), cap)
        net.attach(node_id, node, upload_capacity_bps=cap)
        nodes.append(node)
    for node in nodes:
        node.start()
    return sim, net, directory, nodes


class TestThreePhaseFlow:
    def test_publish_delivers_locally_and_proposes(self):
        sim, net, directory, nodes = build_cluster(5)
        nodes[0].publish(packet(0))
        assert nodes[0].has_packet(0)
        # The view has only 4 peers.
        assert net.stats.count_by_kind["propose"] == min(7, 4)

    def test_packet_reaches_all_nodes(self):
        sim, net, directory, nodes = build_cluster(10)
        nodes[0].publish(packet(0))
        sim.run(until=5.0)
        assert all(node.has_packet(0) for node in nodes)

    def test_no_node_delivers_twice(self):
        sim, net, directory, nodes = build_cluster(12)
        for i in range(5):
            nodes[0].publish(packet(i))
        sim.run(until=5.0)
        for node in nodes:
            assert node.log.duplicates == 0

    def test_payload_fanin_is_one(self):
        """Each node receives each payload from exactly one serve message
        (three-phase property: 'a packet may never be delivered more than
        once to the same node')."""
        sim, net, directory, nodes = build_cluster(10)
        serves_by_dst = {}
        original = net.on_deliver

        def observe(env):
            if env.payload.kind == "serve":
                for p in env.payload.packets:
                    key = (env.dst, p.packet_id)
                    serves_by_dst[key] = serves_by_dst.get(key, 0) + 1

        net.on_deliver = observe
        nodes[0].publish(packet(0))
        sim.run(until=5.0)
        assert all(count == 1 for count in serves_by_dst.values())

    def test_infect_and_die_proposes_each_id_once(self):
        """A node proposes a given id in at most one round (to <= fanout peers)."""
        sim, net, directory, nodes = build_cluster(8)
        propose_rounds = {}  # (src, id) -> set of send times

        def observe(env):
            if env.payload.kind == "propose":
                for packet_id in env.payload.ids:
                    propose_rounds.setdefault((env.src, packet_id), set()).add(
                        round(env.send_time, 6))

        net.on_deliver = observe
        nodes[0].publish(packet(0))
        sim.run(until=5.0)
        for (src, packet_id), times in propose_rounds.items():
            assert len(times) == 1, f"node {src} proposed {packet_id} in {times}"

    def test_ids_batched_per_round(self):
        """Packets delivered within one period are proposed together."""
        sim, net, directory, nodes = build_cluster(6)
        batches = []

        def observe(env):
            if env.payload.kind == "propose" and env.src == 1:
                batches.append(len(env.payload.ids))

        net.on_deliver = observe
        # Feed node 1 three packets directly within a single period.
        for i in range(3):
            nodes[1]._on_serve(0, Serve([packet(i)]))
        sim.run(until=1.0)
        assert batches
        assert max(batches) == 3

    def test_request_only_new_ids(self):
        config = dataclasses.replace(BASE_CONFIG, retransmission=False)
        sim, net, directory, nodes = build_cluster(4, config=config)
        node = nodes[1]
        node._on_serve(0, Serve([packet(0)]))  # already has packet 0
        requests = []

        def observe(env):
            if env.payload.kind == "request" and env.src == 1:
                requests.append(tuple(env.payload.ids))

        net.on_deliver = observe
        node._on_propose(2, Propose([0, 1]))
        sim.run(until=1.0)
        assert requests == [(1,)]

    def test_second_proposer_not_requested(self):
        sim, net, directory, nodes = build_cluster(4)
        node = nodes[1]
        node._on_propose(2, Propose([5]))
        node._on_propose(3, Propose([5]))
        assert net.stats.count_by_kind["request"] == 1

    def test_serve_only_held_packets(self):
        sim, net, directory, nodes = build_cluster(4)
        for node in nodes:
            node.stop()  # quiesce: no proposal rounds interfere
        node = nodes[0]
        node._on_serve(3, Serve([packet(0)]))  # hand node 0 the packet
        serves = []

        def observe(env):
            if env.payload.kind == "serve":
                serves.append([p.packet_id for p in env.payload.packets])

        net.on_deliver = observe
        node._on_request(1, Request([0, 99]))
        sim.run(until=0.05)
        assert serves == [[0]]

    def test_request_for_unknown_ids_not_served(self):
        sim, net, directory, nodes = build_cluster(4)
        nodes[0]._on_request(1, Request([42]))
        assert net.stats.count_by_kind["serve"] == 0


class TestRetransmission:
    def test_lost_serve_recovered_by_retry(self):
        # 10% loss: with retransmission everything arrives; without it, a
        # lost request or serve is a permanent hole (the id stays in
        # eRequested forever), so delivery is strictly worse.
        def run(retransmission):
            config = dataclasses.replace(
                BASE_CONFIG, retransmission=retransmission,
                retransmission_period=0.3, retransmission_retries=4)
            sim, net, directory, nodes = build_cluster(
                8, config=config, loss=lambda rng: BernoulliLoss(rng, 0.1), seed=3)
            for i in range(10):
                sim.schedule(i * 0.02, lambda i=i: nodes[0].publish(packet(i)))
            sim.run(until=30.0)
            return sum(node.has_packet(i) for node in nodes for i in range(10))

        assert run(retransmission=True) == 8 * 10
        assert run(retransmission=False) < 8 * 10

    def test_abandoned_ids_requestable_from_next_proposer(self):
        config = dataclasses.replace(BASE_CONFIG, retransmission_period=0.2,
                                     retransmission_retries=0)
        sim, net, directory, nodes = build_cluster(4, config=config)
        node = nodes[1]
        # Propose from node 2, but node 2 never serves (it has nothing).
        node._on_propose(2, Propose([7]))
        sim.run(until=1.0)  # retransmission gives up, releases id 7
        assert node.retransmission_stats.abandoned == 1
        node._on_propose(3, Propose([7]))
        assert net.stats.count_by_kind["request"] == 2


class TestDenseState:
    """Store and request marks are arrays indexed by packet id."""

    def test_has_packet_on_unseen_ids(self):
        sim, net, directory, nodes = build_cluster(4)
        node = nodes[1]
        assert not any(node.has_packet(i) for i in (-1, 0, 5, 10**9))
        node._on_serve(2, Serve([packet(5)]))
        assert node.has_packet(5)
        # -1 must not wrap around to the last slot (which holds 5).
        assert not any(node.has_packet(i) for i in (-1, 0, 4, 6, 10**9))
        node._on_propose(3, Propose([99]))  # marks grow the store too
        assert node.has_packet(5)
        assert not any(node.has_packet(i) for i in (6, 99, 100))

    def test_released_request_can_be_re_requested(self):
        config = dataclasses.replace(BASE_CONFIG, retransmission_period=0.2,
                                     retransmission_retries=0)
        sim, net, directory, nodes = build_cluster(4, config=config)
        for node in nodes:
            node.stop()  # quiesce: no proposal rounds interfere
        node = nodes[1]
        asked = []
        net.on_deliver = lambda env: (
            asked.append(list(env.payload.ids))
            if env.payload.kind == "request" else None)
        # Node 2 holds nothing, so 7 and 300 are never served; 8 arrives.
        node._on_propose(2, Propose([7, 8, 300]))
        node._on_serve(3, Serve([packet(8)]))
        sim.run(until=1.0)  # the retransmission gives up: 7, 300 released
        assert node.retransmission_stats.abandoned == 1
        node._on_propose(3, Propose([300, 8, 7]))
        node._on_propose(0, Propose([7, 300]))  # marked again: no request
        sim.run(until=1.1)
        assert asked == [[7, 8, 300], [300, 7]]


class TestFanouts:
    def test_standard_fanout_constant(self):
        sim, net, directory, nodes = build_cluster(30, StandardGossipNode)
        assert all(node.get_fanout() == 7 for node in nodes)
        assert nodes[0].current_fanout() == 7.0

    def test_heap_initial_fanout_is_base(self):
        sim, net, directory, nodes = build_cluster(10, HeapGossipNode)
        # Before aggregation converges the estimate equals own capability.
        assert nodes[0].current_fanout() == pytest.approx(7.0)

    def test_heap_fanout_adapts_to_relative_capability(self):
        def capability(node_id):
            return 2_000_000.0 if node_id < 2 else 500_000.0

        sim, net, directory, nodes = build_cluster(
            20, HeapGossipNode, capability=capability)
        sim.run(until=5.0)
        rich = nodes[0].current_fanout()
        poor = nodes[5].current_fanout()
        assert rich > 2.5 * poor
        true_average = (2 * 2_000_000 + 18 * 500_000) / 20
        assert nodes[0].current_fanout() == pytest.approx(
            7.0 * 2_000_000 / true_average, rel=0.15)

    def test_heap_average_fanout_near_base(self):
        def capability(node_id):
            return 3_000_000.0 if node_id < 3 else 512_000.0

        sim, net, directory, nodes = build_cluster(
            30, HeapGossipNode, capability=capability)
        sim.run(until=5.0)
        mean = sum(node.current_fanout() for node in nodes) / 30
        assert mean == pytest.approx(7.0, rel=0.1)

    def test_heap_min_fanout_floor(self):
        config = dataclasses.replace(BASE_CONFIG, min_fanout=1.0)

        def capability(node_id):
            return 10_000_000.0 if node_id == 0 else 100_000.0

        sim, net, directory, nodes = build_cluster(
            10, HeapGossipNode, config=config, capability=capability)
        sim.run(until=5.0)
        assert nodes[5].current_fanout() >= 1.0


class TestLifecycle:
    def test_stop_halts_gossip(self):
        sim, net, directory, nodes = build_cluster(5)
        nodes[0].publish(packet(0))
        for node in nodes:
            node.stop()
        before = net.stats.count_by_kind["propose"]
        sim.run(until=5.0)
        # Reactive request/serve responses to in-flight proposals still
        # happen, but no node starts a new gossip round.
        assert net.stats.count_by_kind["propose"] == before

    def test_running_property(self):
        sim, net, directory, nodes = build_cluster(3)
        assert nodes[0].running
        nodes[0].stop()
        assert not nodes[0].running

    def test_heap_stop_also_stops_aggregation(self):
        sim, net, directory, nodes = build_cluster(5, HeapGossipNode)
        nodes[0].stop()
        assert not nodes[0].aggregator._timer.running


class _SendLog:
    """Stands in for the fabric: records every unicast payload."""

    def __init__(self):
        self.sent = []

    def send(self, src, dst, payload):
        self.sent.append((src, dst, payload))


def _slots_of(message):
    return {name: getattr(message, name) for name in type(message).__slots__}


class TestSlotBuiltMessages:
    """[Request] and [Serve] are built by slot stores on the hot path: each
    must equal what its constructor builds, slot for slot."""

    def node(self):
        net = _SendLog()
        node = StandardGossipNode(Simulator(), net, 0, LocalView(0, [1, 2]),
                                  BASE_CONFIG, random.Random(0), 10e6)
        return node, net

    @settings(max_examples=100, deadline=None)
    @given(held=st.dictionaries(st.integers(0, 40), st.integers(1, 3000),
                                max_size=12),
           asked=st.lists(st.integers(0, 40), max_size=12))
    def test_serve_equals_the_constructor(self, held, asked):
        node, net = self.node()
        delivered = {}
        for packet_id, size in held.items():
            delivered[packet_id] = StreamPacket(
                packet_id=packet_id, window_id=0, publish_time=0.0,
                size_bytes=size)
            node._deliver(delivered[packet_id])
        # The ids held are exactly the ids logged (probed past them).
        assert ([i for i in range(42) if node.has_packet(i)]
                == [i for i, _ in node.log.items()] == sorted(held))
        node._on_request(7, Request(asked))
        packets = [delivered[i] for i in asked if i in held]
        if not packets:
            assert net.sent == []
            return
        [(src, dst, serve)] = net.sent
        assert (src, dst, type(serve)) == (0, 7, Serve)
        assert _slots_of(serve) == _slots_of(Serve(packets))
        assert serve.wire_size() == Serve(packets).wire_size()
        assert node.packets_served == len(packets)

    @settings(max_examples=100, deadline=None)
    @given(requested=st.sets(st.integers(0, 40), max_size=12),
           proposed=st.lists(st.integers(0, 40), max_size=12))
    def test_request_equals_the_constructor(self, requested, proposed):
        node, net = self.node()
        # Mark ``requested`` the way a node does: answer another
        # proposer's [Propose] for them.
        node._on_propose(1, Propose(sorted(requested)))
        net.sent.clear()
        node._on_propose(2, Propose(proposed))
        wanted = [i for i in proposed if i not in requested]
        if not wanted:
            assert net.sent == []
            return
        [(src, dst, request)] = net.sent
        assert (src, dst, type(request)) == (0, 2, Request)
        assert _slots_of(request) == _slots_of(Request(wanted))
        assert request.wire_size() == Request(wanted).wire_size()
        # The retransmission manager tracks the tuple that went out.
        assert node._send_request(2, wanted) == request.ids
