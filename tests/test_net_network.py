"""Unit and integration tests for the network fabric."""

import random

import pytest

from repro.net.latency import ConstantLatency
from repro.net.loss import BernoulliLoss
from repro.net.message import UDP_IP_HEADER_BYTES, intern_kind
from repro.net.network import Network
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


def make_net(latency=0.05, loss=None):
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(latency), loss=loss)
    return sim, net


def test_datagram_size_includes_header():
    sim, net = make_net()
    net.attach(1, Sink(), 1e9)
    net.attach(2, Sink(), 1e9)
    net.send(1, 2, FakePayload(size=100))
    assert net.stats.bytes_sent == 100 + UDP_IP_HEADER_BYTES


def test_message_delivered_with_latency_and_serialization():
    sim, net = make_net(latency=0.05)
    a, b = Sink(), Sink()
    net.attach(1, a, upload_capacity_bps=1_000_000)
    net.attach(2, b, upload_capacity_bps=1_000_000)
    payload = FakePayload(size=972)  # 1000B datagram -> 8ms at 1Mbps
    net.send(1, 2, payload)
    sim.run()
    assert len(b.received) == 1
    env = b.received[0]
    assert env.payload is payload
    assert env.arrival_time == pytest.approx(0.008 + 0.05)


def test_send_from_unattached_node_returns_none():
    sim, net = make_net()
    net.attach(2, Sink(), 1e6)
    assert net.send(1, 2, FakePayload()) is None


def test_send_to_unattached_node_is_dropped():
    sim, net = make_net()
    net.attach(1, Sink(), 1e6)
    net.send(1, 99, FakePayload())
    sim.run()
    assert net.stats.dropped_dead == 1


def test_double_attach_rejected():
    sim, net = make_net()
    net.attach(1, Sink(), 1e6)
    with pytest.raises(ValueError):
        net.attach(1, Sink(), 1e6)


def test_uplink_queueing_delays_second_message():
    sim, net = make_net(latency=0.0)
    sink = Sink()
    net.attach(1, Sink(), upload_capacity_bps=8000.0)  # 1000B -> 1s
    net.attach(2, sink, upload_capacity_bps=8000.0)
    net.send(1, 2, FakePayload(size=1000 - UDP_IP_HEADER_BYTES))
    net.send(1, 2, FakePayload(size=1000 - UDP_IP_HEADER_BYTES))
    sim.run()
    arrivals = [env.arrival_time for env in sink.received]
    assert arrivals == [pytest.approx(1.0), pytest.approx(2.0)]


def test_crashed_node_stops_receiving():
    sim, net = make_net(latency=0.5)
    sink = Sink()
    net.attach(1, Sink(), 1e9)
    net.attach(2, sink, 1e9)
    net.send(1, 2, FakePayload())
    net.crash(2)
    sim.run()
    assert sink.received == []
    assert net.stats.dropped_dead == 1
    assert not net.is_alive(2)


def test_crashed_node_stops_sending():
    sim, net = make_net()
    net.attach(1, Sink(), 1e9)
    net.attach(2, Sink(), 1e9)
    net.crash(1)
    assert net.send(1, 2, FakePayload()) is None


def test_queued_datagrams_die_with_sender():
    # Sender enqueues 10 slow datagrams then crashes at t=1.5: datagrams
    # whose serialization finished before the crash survive, the rest die.
    sim, net = make_net(latency=0.0)
    sink = Sink()
    net.attach(1, Sink(), upload_capacity_bps=8000.0)  # 1000B/s -> 1s each
    net.attach(2, sink, upload_capacity_bps=8000.0)
    for _ in range(10):
        net.send(1, 2, FakePayload(size=1000 - UDP_IP_HEADER_BYTES))
    sim.schedule(1.5, lambda: net.crash(1))
    sim.run()
    assert len(sink.received) == 1  # only the first (exit t=1.0) made it


def test_messages_on_wire_survive_sender_crash():
    sim, net = make_net(latency=1.0)
    sink = Sink()
    net.attach(1, Sink(), 1e9)
    net.attach(2, sink, 1e9)
    net.send(1, 2, FakePayload())  # exits wire ~immediately, arrives t~1.0
    sim.schedule(0.5, lambda: net.crash(1))
    sim.run()
    assert len(sink.received) == 1


def test_loss_model_applied():
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(0.0),
                  loss=BernoulliLoss(random.Random(1), 1.0))
    sink = Sink()
    net.attach(1, Sink(), 1e9)
    net.attach(2, sink, 1e9)
    net.send(1, 2, FakePayload())
    sim.run()
    assert sink.received == []
    assert net.stats.lost == 1


def test_stats_accounting():
    sim, net = make_net()
    sink = Sink()
    net.attach(1, Sink(), 1e9)
    net.attach(2, sink, 1e9)
    net.send(1, 2, FakePayload(kind="propose", size=72))
    net.send(1, 2, FakePayload(kind="serve", size=1372))
    sim.run()
    stats = net.stats
    assert stats.sent == 2
    assert stats.delivered == 2
    assert stats.count_by_kind == {"propose": 1, "serve": 1}
    assert stats.bytes_by_kind["propose"] == 72 + UDP_IP_HEADER_BYTES
    assert (net.uplink(1).bytes_sent == stats.bytes_sent
            == sum(env.size_bytes for env in sink.received))
    assert stats.delivery_ratio() == 1.0


def test_on_deliver_observer():
    sim, net = make_net()
    seen = []
    net.on_deliver = lambda env: seen.append(env.payload.kind)
    net.attach(1, Sink(), 1e9)
    net.attach(2, Sink(), 1e9)
    net.send(1, 2, FakePayload(kind="x"))
    sim.run()
    assert seen == ["x"]


def test_queue_cap_drops_recorded_in_stats():
    sim, net = make_net(latency=0.0)
    net.attach(1, Sink(), upload_capacity_bps=8000.0, max_queue_delay=0.5)
    net.attach(2, Sink(), upload_capacity_bps=8000.0)
    for _ in range(3):
        net.send(1, 2, FakePayload(size=1000 - UDP_IP_HEADER_BYTES))
    sim.run()
    assert net.stats.dropped_queue == 2


# ----------------------------------------------------------------------
# multicast fast path (send_many)
# ----------------------------------------------------------------------
class TestSendMany:
    def _stats_key(self, net):
        stats = net.stats
        return (stats.sent, stats.delivered, stats.lost, stats.dropped_queue,
                stats.bytes_sent, dict(stats.bytes_by_kind),
                dict(stats.count_by_kind),
                dict(stats.received_count_by_kind),
                {n: (net.uplink(n).bytes_sent, net.uplink(n).busy_until)
                 for n in net.node_ids})

    def _build(self, n, seed):
        """A fabric with per-destination RNG consumption in both the loss
        and latency models, so any deviation from caller-order draws shows."""
        from repro.net.latency import PairwiseLatency

        sim = Simulator()
        net = Network(sim, latency=PairwiseLatency(random.Random(seed)),
                      loss=BernoulliLoss(random.Random(seed + 1), 0.2))
        sinks = [Sink() for _ in range(n)]
        for i, sink in enumerate(sinks):
            net.attach(i, sink, 1e6)
        return sim, net, sinks

    def test_bit_identical_to_send_loop(self):
        """send_many == a per-destination send loop: same RNG draws, same
        arrivals, same stats — the golden-trace contract in miniature."""
        dsts = [3, 1, 4, 2, 1]  # duplicates and non-monotonic order on purpose
        payload = FakePayload(kind="fan", size=300)

        sim_a, net_a, sinks_a = self._build(5, seed=7)
        for dst in dsts:
            net_a.send(0, dst, payload)
        sim_a.run()

        sim_b, net_b, sinks_b = self._build(5, seed=7)
        wired = net_b.send_many(0, dsts, payload)
        sim_b.run()

        assert wired == net_b.stats.sent
        assert self._stats_key(net_a) == self._stats_key(net_b)
        for sink_a, sink_b in zip(sinks_a, sinks_b):
            assert ([(e.src, e.dst, e.arrival_time) for e in sink_a.received]
                    == [(e.src, e.dst, e.arrival_time) for e in sink_b.received])

    def test_wire_cost_computed_once_but_charged_per_destination(self):
        sim, net = make_net(latency=0.0)
        net.attach(1, Sink(), 1e9)
        sinks = [Sink() for _ in range(3)]
        for i, sink in enumerate(sinks):
            net.attach(2 + i, sink, 1e9)
        payload = FakePayload(kind="multi", size=100)
        sent = net.send_many(1, [2, 3, 4], payload)
        sim.run()
        assert sent == 3
        size = 100 + UDP_IP_HEADER_BYTES
        assert net.stats.bytes_sent == 3 * size
        assert net.stats.bytes_by_kind["multi"] == 3 * size
        assert net.stats.count_by_kind["multi"] == 3
        uplink = net.uplink(1)
        assert (net.stats.sent, uplink.bytes_sent) == (3, 3 * size)
        assert all(len(sink.received) == 1 for sink in sinks)

    def test_dead_or_unattached_sender_sends_nothing(self):
        sim, net = make_net()
        net.attach(2, Sink(), 1e9)
        assert net.send_many(1, [2], FakePayload()) == 0
        net.attach(1, Sink(), 1e9)
        net.crash(1)
        assert net.send_many(1, [2], FakePayload()) == 0
        assert net.stats.sent == 0

    def test_queue_cap_drops_skip_loss_and_latency_draws(self):
        """A destination dropped at the queue cap consumes no RNG — the
        next destination's draws line up with the equivalent send loop."""
        def run(use_many):
            sim = Simulator()
            from repro.net.latency import PairwiseLatency
            net = Network(sim, latency=PairwiseLatency(random.Random(5)))
            net.attach(1, Sink(), upload_capacity_bps=8000.0,
                       max_queue_delay=0.5)
            sink = Sink()
            net.attach(2, sink, 1e9)
            payload = FakePayload(size=1000 - UDP_IP_HEADER_BYTES)
            if use_many:
                net.send_many(1, [2, 2, 2], payload)
            else:
                for _ in range(3):
                    net.send(1, 2, payload)
            sim.run()
            return (net.stats.dropped_queue, net.stats.sent,
                    [e.arrival_time for e in sink.received])

        assert run(use_many=False) == run(use_many=True)
        assert run(use_many=True)[0] == 2

    def test_empty_destination_list_is_a_noop(self):
        sim, net = make_net()
        net.attach(1, Sink(), 1e9)
        assert net.send_many(1, [], FakePayload()) == 0
        assert net.stats.sent == 0

    def test_shared_payload_delivered_to_every_destination(self):
        sim, net = make_net(latency=0.0)
        net.attach(1, Sink(), 1e9)
        sinks = {i: Sink() for i in (2, 3)}
        for i, sink in sinks.items():
            net.attach(i, sink, 1e9)
        payload = FakePayload(kind="shared")
        net.send_many(1, [2, 3], payload)
        sim.run()
        for sink in sinks.values():
            assert sink.received[0].payload is payload


def test_delivered_envelope_carries_what_was_sent():
    sim, net = make_net(latency=0.05)
    kinds = []

    class Reader:
        def on_message(self, envelope):
            kinds.append((envelope.payload.kind, envelope.src,
                          envelope.dst, envelope.size_bytes))

    net.attach(1, Reader(), 1e9)
    net.attach(2, Reader(), 1e9)
    for i in range(5):
        net.send(1, 2, FakePayload(kind=f"k{i}", size=100 + i))
    sim.run()
    assert kinds == [(f"k{i}", 1, 2, 100 + i + UDP_IP_HEADER_BYTES)
                     for i in range(5)]
