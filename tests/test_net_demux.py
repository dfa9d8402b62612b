"""Kind-id demultiplexing: the fabric's captured dispatch tables and
``GossipNode``'s handler registry, through which co-hosted protocols
share one endpoint."""

import random

import pytest

from repro.core.config import GossipConfig
from repro.core.standard import StandardGossipNode
from repro.membership.directory import MembershipDirectory
from repro.net.latency import ConstantLatency
from repro.net.message import intern_kind
from repro.net.network import Network
from repro.sim.engine import Simulator


class P:
    def __init__(self, kind):
        self.kind = kind
        self.kind_id = intern_kind(kind, register=True)

    def wire_size(self):
        return 10


class Sink:
    def on_message(self, envelope):
        pass


def attached_node():
    """A gossip node attached as endpoint 2 of a zero-latency fabric."""
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(0.0))
    directory = MembershipDirectory(sim, random.Random(0),
                                    mean_detection_delay=0.0)
    directory.register_all(range(3))
    node = StandardGossipNode(sim, net, 2, directory.view_of(2),
                              GossipConfig(randomize_phase=False),
                              random.Random(1), 1e9)
    net.attach(1, Sink(), 1e9)
    net.attach(2, node, 1e9)
    return sim, net, node


def test_routes_by_kind():
    sim, net, node = attached_node()
    seen = []
    for name in ("demux-a", "demux-b"):
        intern_kind(name, register=True)
    # Registered after attach: the fabric's captured table is live.
    node.register_handler("demux-a", lambda env: seen.append(("a", env)))
    node.register_handler("demux-b", lambda env: seen.append(("b", env)))
    net.send(1, 2, P("demux-b"))
    sim.run()
    assert [tag for tag, _ in seen] == ["b"]


def test_routes_by_kind_id():
    sim, net, node = attached_node()
    seen = []
    node.register_handler(intern_kind("demux-c", register=True), seen.append)
    net.send(1, 2, P("demux-c"))
    sim.run()
    assert len(seen) == 1


def test_register_unknown_kind_name_raises():
    _, _, node = attached_node()
    with pytest.raises(KeyError, match="unknown payload kind"):
        node.register_handler("never-registered-kind", lambda env: None)


def test_duplicate_registration_rejected():
    _, _, node = attached_node()
    intern_kind("demux-a", register=True)
    node.register_handler("demux-a", lambda env: None)
    with pytest.raises(ValueError, match="already registered"):
        node.register_handler("demux-a", lambda env: None)


def test_dispatch_table_is_live_and_network_routes_through_it():
    """The fabric dispatches an endpoint's table captured at attach time —
    registered kinds bypass on_message; unrouted ones fall back to it."""

    class Endpoint:
        def __init__(self):
            self.table = {}
            self.fallback = []

        def dispatch_table(self):
            return self.table

        def on_message(self, envelope):
            self.fallback.append(envelope)

    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(0.0))
    endpoint = Endpoint()
    seen = []
    net.attach(1, Sink(), 1e9)
    net.attach(2, endpoint, 1e9)
    # Register *after* attach: the captured table reference is live.
    endpoint.table[intern_kind("routed-kind", register=True)] = seen.append
    net.send(1, 2, P("routed-kind"))
    net.send(1, 2, P("unrouted-kind"))
    sim.run()
    assert [e.payload.kind for e in seen] == ["routed-kind"]
    assert [e.payload.kind for e in endpoint.fallback] == ["unrouted-kind"]
