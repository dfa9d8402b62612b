"""Router-protocol conformance suite.

Both delivery routers — the default :class:`InprocRouter` and a
:class:`ShardRouter` that owns the whole population (sharding degenerated
to one shard) — must implement identical delivery semantics: arrival
times, arrival order, crash handling, dispatch-table routing, observer
hooks and stats.  The suite runs every behavioural test against both.

The arrival contract: the envelope is the event.  Every routed datagram
is one queue entry, delivered (or dropped dead) by one ``deliver``
call, in the engine's (arrival time, enqueue order) — ties included.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.latency import ConstantLatency, PerPairLatency
from repro.net.message import UDP_IP_HEADER_BYTES, Envelope, intern_kind
from repro.net.network import Network
from repro.net.router import InprocRouter, Router
from repro.net.shard import ShardRouter
from repro.net.stats import NetworkStats
from repro.sim.engine import SimulationError, Simulator


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


def make_net(router_factory, latency=0.05):
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(latency),
                  router=router_factory())
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

    def test_receive_stats_mirror_send_stats(self, router_factory):
        sim, net = make_net(router_factory)
        net.attach(1, Sink(), 1e9)
        net.attach(2, Sink(), 1e9)
        net.send(1, 2, FakePayload(kind="propose", size=72))
        net.send(1, 2, FakePayload(kind="serve", size=1372))
        sim.run()
        stats = net.stats
        assert stats.delivered == 2
        assert stats.received_count_by_kind == {"propose": 1, "serve": 1}


class Recorder:
    """Endpoint appending ``(name, envelope tag)`` to a shared log."""

    def __init__(self, name, log):
        self.name = name
        self.log = log

    def on_message(self, envelope):
        self.log.append((self.name, getattr(envelope.payload, "tag", None)))


def tie_net(router_factory, receivers, log):
    """Senders 0-3 with equal uplinks under a constant latency: the k-th
    equal-size datagram of every sender arrives at the same instant."""
    sim, net = make_net(router_factory)
    for sender in range(4):
        net.attach(sender, Sink(), 8e6)
    for node, name in receivers.items():
        net.attach(node, Recorder(name, log), 8e6)
    return sim, net


@pytest.mark.parametrize("router_factory", ROUTERS)
class TestArrivalOrder:
    """One event per datagram, in (arrival time, enqueue order)."""

    def test_same_timestamp_arrivals_deliver_in_send_order(
            self, router_factory):
        log = []
        sim, net = tie_net(router_factory, {10: "a", 11: "b", 12: "c"}, log)
        payload = FakePayload(kind="tie", size=972)  # same size, same exit
        sent = [net.send(src, dst, payload)
                for src, dst in ((2, 12), (0, 10), (1, 11), (3, 10))]
        assert len({envelope.arrival_time for envelope in sent}) == 1
        sim.run()
        assert [name for name, _ in log] == ["c", "a", "b", "a"]

    def test_interleaved_event_keeps_its_place(self, router_factory):
        # An event scheduled between two same-timestamp routes runs
        # between the two deliveries.
        log = []
        sim, net = tie_net(router_factory, {10: "a", 11: "b"}, log)
        payload = FakePayload(kind="tick", size=972)
        first = net.send(0, 10, payload)            # arrival t*
        sim.post_at(first.arrival_time, lambda: log.append(("timer", None)))
        net.send(1, 11, payload)                    # same arrival t*
        sim.run()
        assert [name for name, _ in log] == ["a", "timer", "b"]
        assert sim.events_executed == 3

    def test_one_event_per_datagram(self, router_factory):
        log = []
        sim, net = tie_net(router_factory, {10: "a", 11: "b"}, log)
        payload = FakePayload(kind="bulk", size=972)
        for src in range(4):                        # four tied arrivals,
            net.send(src, 10 + src % 2, payload)    # two per receiver
        net.send(0, 10, payload)                    # and one on its own
        sim.post_at(0.01, lambda: net.crash(11))    # before any arrival
        sim.run()
        stats = net.stats
        assert (stats.delivered, stats.dropped_dead) == (3, 2)
        assert sim.events_executed == stats.delivered + stats.dropped_dead + 1

    def test_tied_and_untied_arrivals_count_the_same(self, router_factory):
        def totals(tied):
            sim, net = tie_net(router_factory, {}, [])
            sink = Sink()
            net.attach(9, sink, 8e6)
            payload = FakePayload(kind="eq", size=972)
            for src in range(4):
                net.send(src, 9, payload)
                if not tied:
                    # Distinct enqueue times -> distinct arrival times.
                    sim.run()
            sim.run()
            stats = net.stats
            return (stats.delivered, dict(stats.received_count_by_kind),
                    sum(envelope.size_bytes for envelope in sink.received),
                    len(sink.received), sim.events_executed)

        assert totals(tied=True) == totals(tied=False)

    #: ("send", src, dst, kind, size) | ("timer", slot) — a timer ties
    #: with the ``slot``-th earlier send's arrival (or fires at 0.0505).
    _ops = st.lists(st.one_of(
        st.tuples(st.just("send"), st.integers(0, 3), st.integers(10, 13),
                  st.sampled_from(("mix-a", "mix-b")),
                  st.sampled_from((472, 972))),
        st.tuples(st.just("timer"), st.integers(0, 30))), max_size=30)

    @settings(max_examples=60, deadline=None)
    @given(ops=_ops, victim=st.sampled_from((0, 1, 10, 11)),
           crash_slot=st.integers(0, 30), crash_first=st.booleans())
    def test_random_mix_matches_sorted_reference(
            self, router_factory, ops, victim, crash_slot, crash_first):
        """Tied sends, interleaved ``post_at``s and a mid-run crash
        against the plain reference: sort by (arrival, enqueue index),
        then apply the crash rules entry by entry."""
        log = []
        sim, net = tie_net(router_factory,
                           {node: node for node in range(10, 14)}, log)
        received = {}       # receiver -> bytes of the envelopes it got

        def count(envelope):
            received[envelope.dst] = (received.get(envelope.dst, 0)
                                      + envelope.size_bytes)

        net.on_deliver = count
        entries = []        # (time, enqueue index, what, detail)
        arrivals = []

        def tie_time(slot):
            return arrivals[slot % len(arrivals)] if arrivals else 0.0505

        def post(time, what, detail, callback):
            entries.append((time, len(entries), what, detail))
            sim.post_at(time, callback)

        def crash():
            net.crash(victim)
            log.append(("crash", victim))

        def post_crash():
            post(tie_time(crash_slot), "crash", victim, crash)

        if crash_first:
            post_crash()
        for tag, op in enumerate(ops):
            if op[0] == "timer":
                post(tie_time(op[1]), "timer", tag,
                     lambda tag=tag: log.append(("timer", tag)))
                continue
            _, src, dst, kind, size = op
            payload = FakePayload(kind=kind, size=size)
            payload.tag = tag
            envelope = net.send(src, dst, payload)
            entries.append((envelope.arrival_time, len(entries), "send",
                            (src, dst, tag, kind, envelope.size_bytes,
                             envelope._exit_time)))
            arrivals.append(envelope.arrival_time)
        if not crash_first:
            post_crash()
        sim.run()

        expected, crashed_at = [], None
        delivered = dropped = 0
        by_kind, bytes_down = {}, {}
        for time, _, what, detail in sorted(entries, key=lambda e: e[:2]):
            if what == "crash":
                crashed_at = time
                expected.append(("crash", detail))
            elif what == "timer":
                expected.append(("timer", detail))
            else:
                src, dst, tag, kind, size, exit_time = detail
                if crashed_at is not None and (
                        dst == victim
                        or (src == victim and exit_time > crashed_at)):
                    dropped += 1
                    continue
                delivered += 1
                by_kind[kind] = by_kind.get(kind, 0) + 1
                bytes_down[dst] = bytes_down.get(dst, 0) + size
                expected.append((dst, tag))
        assert log == expected
        stats = net.stats
        assert (stats.delivered, stats.dropped_dead) == (delivered, dropped)
        assert dict(stats.received_count_by_kind) == by_kind
        assert received == bytes_down
        assert sim.events_executed == len(entries)

    #: (what, offset, flag): flag cancels a handle before the run.
    _entries = st.lists(st.tuples(
        st.sampled_from(("route", "handle", "post", "lane")),
        st.sampled_from((0.0, 0.5, 1.0, 1.0, 2.0)), st.booleans()),
        max_size=25)

    @settings(max_examples=150, deadline=None)
    @given(first=_entries, second=_entries,
           split=st.sampled_from((0.0, 0.5, 1.0, 3.0)))
    def test_arrivals_order_with_handles_lanes_and_posts(
            self, router_factory, first, second, split):
        """A routed arrival is a heap entry carrying its envelope: it
        fires in (time, enqueue order) among handles (cancelled ones
        skipped), lane entries and bare posts exactly as the reference
        heap orders them, also when queued between two runs."""
        log = []
        sim, net = tie_net(router_factory, {10: "route"}, log)
        entries = []        # (time, enqueue index, what, live)

        def queue(ops, lane):
            last = sim.now
            for what, offset, flag in ops:
                time = sim.now + offset
                label = len(entries)
                if what == "route":
                    payload = FakePayload(kind="ordered", size=100)
                    payload.tag = label
                    net.router.route(Envelope(0, 10, payload, 128, sim.now,
                                              time))
                elif what == "handle":
                    handle = sim.schedule_at(
                        time, lambda label=label: log.append(("handle",
                                                              label)))
                    if flag:
                        handle.cancel()
                elif what == "post":
                    sim.post_at(time, lambda label=label: log.append(
                        ("post", label)))
                else:
                    time = last = max(time, last)
                    lane.post(time - sim.now, label)
                entries.append((time, label, what,
                                not (what == "handle" and flag)))

        def ran(label):
            log.append(("lane", label))

        queue(first, sim.lane(ran))
        sim.run(until=split)
        queue(second, sim.lane(ran))
        sim.run()
        assert log == [(what, label) for _, label, what, live
                       in sorted(entries) if live]
        assert sim.events_executed == len(log)
        assert sim.pending_count == 0

    def test_a_past_or_nan_arrival_is_refused(self, router_factory):
        sim, net = make_net(router_factory)
        net.attach(10, Sink(), 8e6)
        sim.run(until=1.0)
        payload = FakePayload(kind="late", size=100)
        for arrival in (0.5, float("nan")):
            with pytest.raises(SimulationError):
                net.router.route(Envelope(0, 10, payload, 128, 0.0, arrival))
        assert sim._seq == 0 and sim.pending_count == 0
        net.router.route(Envelope(0, 10, payload, 128, 1.0, 1.0))
        assert sim.run() == 1.0 and net.stats.delivered == 1


class TestReceiveStats:
    """Receive-side accounting outside the per-router conformance."""

    def test_late_registered_kind_is_counted_on_delivery(self):
        sim, net = make_net(_inproc)
        net.attach(1, Sink(), 1e9)
        net.attach(2, Sink(), 1e9)
        # Registered after the fabric sized its per-kind lists.
        net.send(1, 2, FakePayload(kind="recv-late", size=22))
        net.send(1, 2, FakePayload(kind="recv-late", size=22))
        sim.run()
        assert net.stats.received_count_by_kind == {"recv-late": 2}

    def test_merge_from_sums_both_directions(self):
        kind = intern_kind("recv-merge", register=True)
        a, b = NetworkStats(), NetworkStats()
        for stats, sent, delivered in ((a, 5, 2), (b, 1, 3)):
            stats.kind_slot(kind)
            stats._count_by_kind[kind] = sent
            stats._bytes_by_kind[kind] = 100 * sent
            stats._recv_count_by_kind[kind] = delivered
        a.merge_from(b)
        assert a.sent == 6 and a.bytes_sent == 600
        assert a.delivered == 5
        assert a.count_by_kind == {"recv-merge": 6}
        assert a.received_count_by_kind == {"recv-merge": 5}


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
        ((kind_id, src, dst, size, payload, *_),) = pickle.loads(
            outboxes[1][0])
        assert (src, dst) == (0, 1)
        assert kind_id == payload.kind_id == FakePayload("remote").kind_id
        assert size == 50 + UDP_IP_HEADER_BYTES

    def test_remote_destination_lands_in_packed_buffer(self):
        # The window's outbox to a peer shard is one pickled buffer,
        # however many envelopes it carries.
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
        (blob,) = outboxes[1]
        assert isinstance(blob, bytes) and len(pickle.loads(blob)) == 2
        assert router.take_outboxes() == [[], []]  # drained
        assert net.stats.wire_buffers == 1
        assert net.stats.wire_envelopes == 2
        assert net.stats.wire_bytes == len(blob)

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
        sim = Simulator()
        router = ShardRouter(owned={1}, shards=2)
        net = Network(sim, latency=ConstantLatency(0.01), router=router)
        sink = Sink()
        net.attach(1, sink, 1e9)
        router.inject(self._wire(envelope))
        sim.run()
        (decoded,) = sink.received
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
