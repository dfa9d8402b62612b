"""Router-protocol conformance suite.

Both delivery routers — the default :class:`InprocRouter` and a
:class:`ShardRouter` that owns the whole population (sharding degenerated
to one shard) — must implement identical delivery semantics: arrival
times, crash handling, dispatch-table routing, observer hooks, stats and
envelope recycling.  The suite runs every behavioural test against both.

On top of conformance, this file pins the two behaviours the router
redesign added:

* same-timestamp arrivals drain through one ``deliver_bucket`` call
  (one event, receiver stats accumulated per kind group);
* ``NetworkStats.add_received`` bulk accumulation is equivalent to n
  single accumulations (the receive-side stats satellite).
"""

import random

import pytest

from repro.net.latency import ConstantLatency, PerPairLatency
from repro.net.message import UDP_IP_HEADER_BYTES, Envelope, intern_kind
from repro.net.network import Network
from repro.net.router import InprocRouter, Router
from repro.net.shard import WIRE_BATCH_TAG, ShardRouter, _decode_batch
from repro.net.stats import NetworkStats
from repro.sim.engine import Simulator


class FakePayload:
    def __init__(self, kind="test", size=100):
        self.kind = kind
        self.kind_id = intern_kind(kind, register=True)
        self._size = size

    def wire_size(self):
        return self._size


class Sink:
    def __init__(self):
        self.received = []

    def on_message(self, envelope):
        self.received.append(envelope)


def _inproc():
    return InprocRouter()


def _single_shard():
    # A ShardRouter owning every node id we use in the tests: all
    # destinations take the local path, so semantics must be identical.
    return ShardRouter(owned=set(range(64)), shards=1)


ROUTERS = [pytest.param(_inproc, id="inproc"),
           pytest.param(_single_shard, id="shard-local")]


def make_net(router_factory, latency=0.05, reuse=False):
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(latency),
                  reuse_envelopes=reuse, router=router_factory())
    return sim, net


@pytest.mark.parametrize("router_factory", ROUTERS)
class TestRouterConformance:
    def test_router_protocol_shape(self, router_factory):
        assert isinstance(router_factory(), Router)

    def test_delivery_with_latency_and_serialization(self, router_factory):
        sim, net = make_net(router_factory)
        sink = Sink()
        net.attach(1, Sink(), upload_capacity_bps=1_000_000)
        net.attach(2, sink, upload_capacity_bps=1_000_000)
        net.send(1, 2, FakePayload(size=972))  # 1000B -> 8ms at 1Mbps
        sim.run()
        assert len(sink.received) == 1
        assert sink.received[0].arrival_time == pytest.approx(0.058)

    def test_crashed_receiver_drops(self, router_factory):
        sim, net = make_net(router_factory, latency=0.5)
        sink = Sink()
        net.attach(1, Sink(), 1e9)
        net.attach(2, sink, 1e9)
        net.send(1, 2, FakePayload())
        net.crash(2)
        sim.run()
        assert sink.received == []
        assert net.stats.dropped_dead == 1

    def test_queued_datagrams_die_with_sender(self, router_factory):
        sim, net = make_net(router_factory, latency=0.0)
        sink = Sink()
        net.attach(1, Sink(), upload_capacity_bps=8000.0)  # 1000B -> 1s each
        net.attach(2, sink, upload_capacity_bps=8000.0)
        for _ in range(4):
            net.send(1, 2, FakePayload(size=1000 - UDP_IP_HEADER_BYTES))
        sim.schedule(1.5, lambda: net.crash(1))
        sim.run()
        assert len(sink.received) == 1
        assert net.stats.dropped_dead == 3

    def test_dispatch_table_routing(self, router_factory):
        sim, net = make_net(router_factory)

        class Endpoint:
            def __init__(self):
                self.table_hits = []
                self.fallback = []

            def dispatch_table(self):
                return {FakePayload("routed").kind_id: self.table_hits.append}

            def on_message(self, envelope):
                self.fallback.append(envelope)

        endpoint = Endpoint()
        net.attach(1, Sink(), 1e9)
        net.attach(2, endpoint, 1e9)
        net.send(1, 2, FakePayload(kind="routed"))
        net.send(1, 2, FakePayload(kind="unrouted"))
        sim.run()
        assert [e.payload.kind for e in endpoint.table_hits] == ["routed"]
        assert [e.payload.kind for e in endpoint.fallback] == ["unrouted"]

    def test_on_deliver_observer_sees_every_envelope(self, router_factory):
        sim, net = make_net(router_factory)
        seen = []
        net.on_deliver = lambda env: seen.append(env.payload.kind)
        net.attach(1, Sink(), 1e9)
        net.attach(2, Sink(), 1e9)
        net.send(1, 2, FakePayload(kind="x"))
        sim.run()
        assert seen == ["x"]

    def test_envelope_recycled_after_delivery(self, router_factory):
        sim, net = make_net(router_factory, reuse=True)
        seen = []

        class Reader:
            def on_message(self, envelope):
                seen.append(id(envelope))

        net.attach(1, Reader(), 1e9)
        net.attach(2, Reader(), 1e9)
        net.send(1, 2, FakePayload())
        sim.run()
        net.send(1, 2, FakePayload())
        sim.run()
        assert len(seen) == 2 and seen[0] == seen[1]

    def test_receive_stats_mirror_send_stats(self, router_factory):
        sim, net = make_net(router_factory)
        net.attach(1, Sink(), 1e9)
        net.attach(2, Sink(), 1e9)
        net.send(1, 2, FakePayload(kind="propose", size=72))
        net.send(1, 2, FakePayload(kind="serve", size=1372))
        sim.run()
        stats = net.stats
        assert stats.delivered == 2
        assert stats.bytes_received == stats.bytes_sent
        assert stats.received_count_by_kind == {"propose": 1, "serve": 1}
        assert (stats.received_bytes_by_kind["serve"]
                == 1372 + UDP_IP_HEADER_BYTES)


class TestArrivalBucketing:
    """The batched-delivery behaviour of the redesigned delivery side."""

    def _bulk_net(self, latency=0.05):
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(latency))
        net.attach(0, Sink(), 1e12)
        sinks = [Sink() for _ in range(8)]
        for i, sink in enumerate(sinks):
            net.attach(1 + i, sink, 1e12)
        return sim, net, sinks

    def test_same_timestamp_bucket_is_one_event(self):
        # At (practically) infinite uplink capacity the per-destination
        # exit times stay distinct but minuscule; use send_many at t=0 so
        # every arrival shares... exit times differ per datagram, so ties
        # need equal sizes from *different senders* instead.
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.05))
        sinks = {i: Sink() for i in (10, 11)}
        net.attach(0, Sink(), 8e6)
        net.attach(1, Sink(), 8e6)
        for i, sink in sinks.items():
            net.attach(i, sink, 8e6)
        payload = FakePayload(kind="bulk", size=972)  # same size, same exit
        net.send(0, 10, payload)
        net.send(1, 11, payload)
        sim.run()
        # Both arrivals at exactly 0.001 + 0.05 -> one coalesced bucket.
        assert sim.events_executed == 1
        assert all(len(s.received) == 1 for s in sinks.values())
        assert net.stats.delivered == 2
        assert net.stats.received_count_by_kind["bulk"] == 2

    def test_interleaved_event_prevents_unsound_coalescing(self):
        # An event scheduled between two same-timestamp routes must keep
        # its enqueue position: the second arrival starts a new bucket.
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.05))
        order = []

        class Recorder:
            def __init__(self, name):
                self.name = name

            def on_message(self, envelope):
                order.append(self.name)

        net.attach(0, Sink(), 8e6)
        net.attach(1, Sink(), 8e6)
        net.attach(10, Recorder("a"), 8e6)
        net.attach(11, Recorder("b"), 8e6)
        payload = FakePayload(kind="tick", size=972)
        first = net.send(0, 10, payload)            # arrival t*
        sim.post_at(first.arrival_time, lambda: order.append("timer"))
        net.send(1, 11, payload)                    # same arrival t*
        sim.run()
        assert order == ["a", "timer", "b"]
        assert sim.events_executed == 3  # two buckets plus the timer

    def test_bucket_stats_equal_singleton_deliveries(self):
        def totals(batched):
            sim = Simulator()
            net = Network(sim, latency=ConstantLatency(0.05))
            senders = range(4)
            for i in senders:
                net.attach(i, Sink(), 8e6)
            sink = Sink()
            net.attach(9, sink, 8e6)
            payload = FakePayload(kind="eq", size=972)
            for i in senders:
                net.send(i, 9, payload)
                if not batched:
                    # Distinct enqueue times -> distinct arrival buckets.
                    sim.run()
            sim.run()
            stats = net.stats
            return (stats.delivered, stats.bytes_received,
                    dict(stats.received_count_by_kind),
                    dict(stats.received_bytes_by_kind),
                    stats.per_node[9].bytes_down,
                    len(sink.received))

        assert totals(batched=True) == totals(batched=False)


class TestAddReceived:
    """Satellite: the bulk receive accumulator is defined to equal n
    single accumulations."""

    def test_bulk_equals_n_singles(self):
        kind_a = intern_kind("recv-a", register=True)
        kind_b = intern_kind("recv-b", register=True)
        bulk = NetworkStats()
        singles = NetworkStats()
        bulk.add_received(kind_a, 7, 7 * 131)
        bulk.add_received(kind_b, 3, 3 * 40)
        for _ in range(7):
            singles.add_received(kind_a, 1, 131)
        for _ in range(3):
            singles.add_received(kind_b, 1, 40)
        assert bulk.delivered == singles.delivered == 10
        assert bulk.bytes_received == singles.bytes_received
        assert bulk.received_count_by_kind == singles.received_count_by_kind
        assert bulk.received_bytes_by_kind == singles.received_bytes_by_kind

    def test_add_received_grows_late_registered_kinds(self):
        stats = NetworkStats()
        late = intern_kind("recv-late", register=True)
        stats.add_received(late, 2, 100)
        assert stats.received_count_by_kind == {"recv-late": 2}

    def test_merge_from_sums_both_directions(self):
        kind = intern_kind("recv-merge", register=True)
        a, b = NetworkStats(), NetworkStats()
        a.add_received(kind, 2, 200)
        a.sent = 5
        a.bytes_sent = 500
        a.node(1).bytes_up = 500
        b.add_received(kind, 3, 300)
        b.sent = 1
        b.bytes_sent = 100
        b.node(1).bytes_down = 300
        a.merge_from(b)
        assert a.sent == 6 and a.bytes_sent == 600
        assert a.delivered == 5 and a.bytes_received == 500
        assert a.received_count_by_kind == {"recv-merge": 5}
        assert a.node(1).bytes_up == 500 and a.node(1).bytes_down == 300


class TestShardRouterLocalParts:
    """ShardRouter mechanics that do not need a full sharded run."""

    def test_remote_destination_lands_in_target_outbox(self):
        sim = Simulator()
        router = ShardRouter(owned={0, 2}, shards=2)
        net = Network(sim, latency=ConstantLatency(0.01), router=router)
        net.attach(0, Sink(), 1e9)
        remote_sink = Sink()
        net.attach(1, remote_sink, 1e9)  # attached but owned by shard 1
        net.send(0, 1, FakePayload(kind="remote", size=50))
        sim.run()
        assert remote_sink.received == []  # not delivered locally
        outboxes = router.take_outboxes()
        assert len(outboxes[1]) == 1 and outboxes[0] == []
        assert router.take_outboxes() == [[], []]  # drained
        (envelope,) = _decode_batch(outboxes[1][0])
        assert (envelope.src, envelope.dst) == (0, 1)
        assert envelope.payload.kind_id == FakePayload("remote").kind_id
        assert envelope.size_bytes == 50 + UDP_IP_HEADER_BYTES

    def test_remote_destination_lands_in_packed_buffer(self):
        # The window's outbox to a peer shard is one packed buffer
        # (tagged tuple), however many envelopes it carries.
        sim = Simulator()
        router = ShardRouter(owned={0, 2}, shards=2)
        net = Network(sim, latency=ConstantLatency(0.01), router=router)
        net.attach(0, Sink(), 1e9)
        net.attach(1, Sink(), 1e9)  # owned by shard 1
        net.send(0, 1, FakePayload(kind="packed", size=50))
        net.send(0, 1, FakePayload(kind="packed", size=50))
        sim.run()
        outboxes = router.take_outboxes()
        assert outboxes[0] == []
        assert len(outboxes[1]) == 1  # ONE buffer for two envelopes
        tag, n_rows, header, blob = outboxes[1][0]
        assert tag == WIRE_BATCH_TAG and n_rows == 2
        assert isinstance(header, bytes) and isinstance(blob, bytes)
        assert router.take_outboxes() == [[], []]  # drained
        assert net.stats.wire_buffers == 1
        assert net.stats.wire_envelopes == 2
        assert net.stats.wire_bytes == len(header) + len(blob)

    def _wire(self, envelope):
        """``envelope`` as shard 0 ships it to shard 1."""
        router = ShardRouter(owned={0}, shards=2)
        Network(Simulator(), latency=ConstantLatency(0.01), router=router)
        router.route(envelope)
        return router.take_outboxes()[1]

    def test_wire_round_trip_preserves_envelope(self):
        payload = FakePayload(kind="wire", size=64)
        envelope = Envelope(0, 1, payload, 92, 1.0, 1.25)
        envelope._exit_time = 1.1
        (decoded,) = _decode_batch(self._wire(envelope)[0])
        assert (decoded.src, decoded.dst) == (0, 1)
        assert decoded.size_bytes == 92
        assert decoded.send_time == 1.0
        assert decoded.arrival_time == 1.25
        assert decoded._exit_time == 1.1
        assert decoded.payload.kind == "wire"
        assert decoded.payload.kind_id == payload.kind_id

    def test_injected_envelopes_deliver_locally(self):
        sim = Simulator()
        router = ShardRouter(owned={1}, shards=2)
        net = Network(sim, latency=ConstantLatency(0.01), router=router)
        sink = Sink()
        net.attach(1, sink, 1e9)
        payload = FakePayload(kind="inject", size=30)
        router.inject(self._wire(Envelope(0, 1, payload, 58, 0.0, 0.2)))
        sim.run()
        assert len(sink.received) == 1
        assert sink.received[0].arrival_time == 0.2
        assert net.stats.delivered == 1

    def test_per_pair_latency_is_order_independent(self):
        a = PerPairLatency(123, jitter=0.01)
        b = PerPairLatency(123, jitter=0.01)
        # Different global interleavings, same per-link sequences.
        seq_a = [a.sample(0, 1), a.sample(0, 1), a.sample(2, 3)]
        first_b = b.sample(2, 3)
        seq_b = [b.sample(0, 1), b.sample(0, 1), first_b]
        assert seq_a == seq_b
        assert a.lower_bound() == a.floor > 0

    def test_per_pair_models_make_arrivals_order_independent(self):
        """Through a real Network: every link's arrival times and drops
        are the same whatever the global send order was, as long as each
        sender's own sequence is — what lets a shard see only its own
        senders and still match the serial run."""
        from repro.net.loss import PerPairLoss

        per_sender = {src: [(src, dst) for dst in range(4) if dst != src] * 6
                      for src in range(4)}

        def arrivals(order):
            sim = Simulator()
            net = Network(sim, latency=PerPairLatency(31),
                          loss=PerPairLoss(32, 0.3))
            sinks = {node: Sink() for node in range(4)}
            for node, sink in sinks.items():
                net.attach(node, sink, 1e9)
            payload = FakePayload(kind="per-pair", size=10)
            for src, dst in order:
                net.send(src, dst, payload)
            sim.run()
            seen = {}
            for dst, sink in sinks.items():
                for envelope in sink.received:
                    seen.setdefault((envelope.src, dst), []).append(
                        envelope.arrival_time)
            return seen, net.stats.lost

        sender_major = [link for src in range(4) for link in per_sender[src]]
        round_robin = [per_sender[src][k] for k in range(18)
                       for src in reversed(range(4))]
        assert arrivals(sender_major) == arrivals(round_robin)
        assert 0 < arrivals(sender_major)[1] < len(sender_major)

    def test_shared_pairwise_latency_is_order_dependent(self):
        from repro.net.latency import PairwiseLatency

        a = PairwiseLatency(random.Random(5))
        b = PairwiseLatency(random.Random(5))
        b.sample(2, 3)  # consume one shared draw first
        assert a.sample(0, 1) != b.sample(0, 1)
