#!/usr/bin/env python3
"""Extending the library: a custom fanout policy and a custom workload.

The paper's §5 suggests adapting gossip to heterogeneity factors other
than bandwidth.  This example shows how little code that takes with this
library: we subclass :class:`~repro.core.base.GossipNode` with a
*latency-aware* fanout policy (nodes that observe fast serves of their
proposals gossip more), define a two-class "fiber vs DSL" workload, and
drive the pieces directly — simulator, network, membership, source —
without the scenario runner.
"""

import random

from repro.core import GossipConfig
from repro.core.base import GossipNode
from repro.membership.directory import MembershipDirectory
from repro.net.latency import PairwiseLatency
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.streaming.packets import StreamConfig
from repro.streaming.player import PlaybackAnalyzer
from repro.streaming.source import StreamSource
from repro.workloads.distributions import KBPS, BandwidthClass, CapabilityDistribution


class ServeAwareNode(GossipNode):
    """Fanout grows with how much this node has served recently.

    A node that keeps being selected as a server evidently sits on a good
    path (capable uplink, low latency), so it volunteers for more
    proposals — a crude self-measured alternative to HEAP's explicit
    capability aggregation.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._served_last_round = 0
        self._serves_at_round_start = 0
        self.peak_fanout = 0

    def get_fanout(self) -> int:
        base = self.config.fanout
        boost = min(2.0, 1.0 + self._served_last_round / 50.0)
        fanout = max(1, round(base * boost))
        self.peak_fanout = max(self.peak_fanout, fanout)
        return fanout

    def current_fanout(self) -> float:
        return float(self.get_fanout())

    def _on_gossip_tick(self) -> None:
        self._served_last_round = self.packets_served - self._serves_at_round_start
        self._serves_at_round_start = self.packets_served
        super()._on_gossip_tick()


FIBER_DSL = CapabilityDistribution("fiber-dsl", [
    BandwidthClass("fiber", 10_000 * KBPS, 0.2),
    BandwidthClass("dsl", 500 * KBPS, 0.8),
])


def main() -> None:
    n = 50
    sim = Simulator()
    registry = RngRegistry(99)
    net = Network(sim, latency=PairwiseLatency(registry.stream("latency")))
    directory = MembershipDirectory(sim, registry.stream("detect"))
    directory.register_all(range(n))

    config = GossipConfig(fanout=6.0)
    assignment = FIBER_DSL.assign(n - 1, registry.stream("workload"))
    capacities = [8_000 * KBPS] + [cap for _, cap in assignment]

    nodes = []
    for node_id in range(n):
        node = ServeAwareNode(sim, net, node_id, directory.view_of(node_id),
                              config, random.Random(node_id), capacities[node_id])
        net.attach(node_id, node, upload_capacity_bps=capacities[node_id])
        node.start()
        nodes.append(node)

    stream = StreamConfig()
    publish_times = []

    def publish(packet):
        publish_times.append(packet.publish_time)
        nodes[0].publish(packet)

    source = StreamSource(sim, stream, publish,
                          total_packets=stream.packets_for_duration(10.0))
    source.start(delay=1.0)
    sim.run(until=40.0)

    analyzer = PlaybackAnalyzer(stream, publish_times.__getitem__)
    windows = range(len(publish_times) // stream.packets_per_window)
    fanouts = [node.peak_fanout for node in nodes[1:]]
    lags = [analyzer.min_lag_jitter_free(node.log, windows)
            for node in nodes[1:]]
    finite = [lag for lag in lags if lag != float("inf")]

    print(f"{n} nodes, fiber/dsl workload, serve-aware fanout policy")
    print(f"peak per-round fanouts ranged {min(fanouts)}..{max(fanouts)} "
          f"(base {config.fanout:g})")
    print(f"{len(finite)}/{len(lags)} nodes got a jitter-free stream; "
          f"mean lag {sum(finite) / len(finite):.2f}s")


if __name__ == "__main__":
    main()
