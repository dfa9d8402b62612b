"""Cross-shard wire batching: one pickle per (window, peer), parity, counters.

The contract under test: a window's cross-shard outbox to one peer shard
is one ``pickle.dumps`` of its row tuples — a pure *wire encoding*, so
the sharded run's metric summaries stay byte-identical to the serial
run — and pickle's memo does the multicast sharing: a payload that
several rows reference is written once per buffer, so a buffer is
smaller than its rows pickled one by one (measured here, never frozen).
"""

import json
import pickle
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import shard
from repro.net.latency import ConstantLatency
from repro.net.message import Envelope, intern_kind
from repro.net.network import Network
from repro.net.router import InprocRouter
from repro.net.shard import ShardRouter, run_sharded, window_count
from repro.net.stats import NetworkStats
from repro.sim.engine import Simulator
from repro.workloads.distributions import REF_691
from repro.workloads.scenario import ScenarioConfig


class FakePayload:
    __slots__ = ("kind", "kind_id", "_size")

    def __init__(self, kind="wb-test", size=100):
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


def sharded_config(**overrides) -> ScenarioConfig:
    base = dict(protocol="heap", n_nodes=60, duration=2.0, drain=4.0,
                seed=9, distribution=REF_691,
                latency_rng="per-pair", latency_floor=0.02)
    base.update(overrides)
    return ScenarioConfig(**base)


def summary_blob(result) -> str:
    from repro.metrics.summary import standard_bundle, summarize

    return json.dumps(summarize(result, standard_bundle()), sort_keys=True)


def rows_pickled_one_by_one(rows) -> int:
    """What the rows would cost as separate pickles (no shared memo)."""
    return sum(len(pickle.dumps(row, protocol=pickle.HIGHEST_PROTOCOL))
               for row in rows)


def receiver(owned=(1,), shards=2):
    """A shard-1 router on a fresh fabric, with sinks on its nodes."""
    sim = Simulator()
    router = ShardRouter(owned=set(owned), shards=shards)
    net = Network(sim, latency=ConstantLatency(0.01), router=router)
    sinks = {node: Sink() for node in owned}
    for node, sink in sinks.items():
        net.attach(node, sink, 1e9)
    return sim, router, net, sinks


# ----------------------------------------------------------------------
# parity: batching is invisible to the results
# ----------------------------------------------------------------------
class TestBatchingParity:
    def test_batched_matches_serial(self):
        from repro.experiments.runner import run_scenario

        config = sharded_config()
        serial = summary_blob(run_scenario(config))
        batched = run_sharded(config.with_(shards=2), processes=False)
        assert summary_blob(batched) == serial

    def test_batching_reduces_serialized_bytes(self, monkeypatch):
        """The point of one dump per window: fewer wire units than
        envelopes, and fewer bytes than the same rows pickled one by one
        — both measured on the same run."""
        one_by_one = []

        def dumps(rows, protocol):
            one_by_one.append(rows_pickled_one_by_one(rows))
            return pickle.dumps(rows, protocol=protocol)

        monkeypatch.setattr(shard, "pickle", SimpleNamespace(
            dumps=dumps, loads=pickle.loads,
            HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL))
        stats = run_sharded(sharded_config(shards=2),
                            processes=False).net.stats
        assert 0 < stats.wire_buffers < stats.wire_envelopes
        assert len(one_by_one) == stats.wire_buffers
        assert 0 < stats.wire_bytes < sum(one_by_one)
        # The ledger's two retired names read the one byte counter.
        assert stats.wire_payload_bytes == stats.wire_bytes
        assert stats.wire_payload_bytes_before == stats.wire_bytes

    def test_wire_counters_survive_the_harvest_merge(self):
        config = sharded_config(shards=3)
        merged = run_sharded(config, processes=False)
        summary = merged.net.stats.wire_summary()
        assert list(summary) == ["buffers", "envelopes", "bytes",
                                 "control_rows"]
        assert summary["buffers"] > 0
        assert summary["envelopes"] > 0
        assert summary["bytes"] > 0

    def test_window_count_matches_wire_buffer_ceiling(self):
        config = sharded_config(shards=2)
        windows = window_count(config)
        assert windows == pytest.approx(config.end_time
                                        / config.latency_floor, abs=1)
        merged = run_sharded(config, processes=False)
        # Per shard pair at most one buffer per window in each direction.
        assert merged.net.stats.wire_buffers <= windows * 2


# ----------------------------------------------------------------------
# multicast: pickle's memo ships a shared payload once per peer shard
# ----------------------------------------------------------------------
class TestMulticastInterning:
    def _fanout_outboxes(self):
        """send_many one payload from node 0 across two peer shards."""
        sim = Simulator()
        router = ShardRouter(owned={0, 3, 6}, shards=3)
        net = Network(sim, latency=ConstantLatency(0.01), router=router)
        for node in range(8):
            net.attach(node, Sink(), 1e9)
        payload = FakePayload(kind="wb-fanout", size=64)
        # Shard 1 owns {1, 4, 7}; shard 2 owns {2, 5}.
        net.send_many(0, [1, 4, 7, 2, 5], payload)
        sim.run()
        return net, router.take_outboxes(), payload

    def test_one_payload_blob_per_peer_shard(self):
        net, outboxes, payload = self._fanout_outboxes()
        assert outboxes[0] == []
        for target, expected_dsts in ((1, [1, 4, 7]), (2, [2, 5])):
            (blob,) = outboxes[target]
            assert isinstance(blob, bytes)
            rows = pickle.loads(blob)
            assert [row[2] for row in rows] == expected_dsts
            # ONE payload object despite the fan-out.
            assert len({id(row[4]) for row in rows}) == 1
            assert rows[0][4].kind == "wb-fanout"

    def test_decoded_rows_share_the_interned_payload(self):
        net, outboxes, payload = self._fanout_outboxes()
        sim, router, _, sinks = receiver(owned=(1, 4, 7), shards=3)
        router.inject(outboxes[1])
        sim.run()
        envelopes = [e for node in (1, 4, 7) for e in sinks[node].received]
        assert [e.dst for e in envelopes] == [1, 4, 7]
        assert len({id(e.payload) for e in envelopes}) == 1
        assert all(e.size_bytes == envelopes[0].size_bytes
                   for e in envelopes)

    def test_interning_counters_are_exact(self):
        net, outboxes, payload = self._fanout_outboxes()
        stats = net.stats
        blobs = [outboxes[1][0], outboxes[2][0]]
        assert stats.wire_buffers == 2
        assert stats.wire_envelopes == 5
        assert stats.wire_bytes == sum(len(blob) for blob in blobs)
        for blob in blobs:
            # The shared payload is written once, not once per row.
            assert len(blob) < rows_pickled_one_by_one(pickle.loads(blob))

    def test_interning_resets_at_the_barrier(self):
        sim = Simulator()
        router = ShardRouter(owned={0}, shards=2)
        net = Network(sim, latency=ConstantLatency(0.01), router=router)
        net.attach(0, Sink(), 1e9)
        net.attach(1, Sink(), 1e9)
        payload = FakePayload(kind="wb-rewindow", size=32)
        net.send(0, 1, payload)
        sim.run()
        first = router.take_outboxes()
        net.send(0, 1, payload)  # same object, next window
        sim.run(until=sim.now + 1.0)
        second = router.take_outboxes()
        # A fresh window re-ships the payload: no cross-window sharing.
        assert len(first[1]) == 1 and len(second[1]) == 1
        (row,) = pickle.loads(second[1][0])
        assert row[4].kind == "wb-rewindow"
        assert len(second[1][0]) == len(first[1][0])


# ----------------------------------------------------------------------
# decode: buffers deliver exactly like envelopes routed one by one
# ----------------------------------------------------------------------
class TestBatchInjectEquivalence:
    def _burst(self):
        """A mixed-arrival burst from node 0 to shard 1's node 1."""
        small = FakePayload(kind="wb-small", size=40)
        big = FakePayload(kind="wb-big", size=400)
        return [Envelope(0, 1, payload, payload.wire_size() + 28, 0.1,
                         arrival)
                for payload, arrival in ((small, 0.2), (small, 0.2),
                                         (big, 0.3), (small, 0.2),
                                         (big, 0.3))]

    def _sender_outbox(self):
        """Route the burst at shard 1 and take the outbox."""
        sim = Simulator()
        router = ShardRouter(owned={0}, shards=2)
        net = Network(sim, latency=ConstantLatency(0.01), router=router)
        net.attach(0, Sink(), 1e9)
        for envelope in self._burst():
            router.route(envelope)
        return router.take_outboxes()[1]

    def _deliver(self, receive):
        """Run shard 1 after ``receive(router)`` handed it the traffic."""
        sim, router, net, sinks = receiver()
        receive(router)
        sim.run()
        order = [(e.payload.kind, e.arrival_time, e.size_bytes)
                 for e in sinks[1].received]
        return order, sim.events_executed, net.stats

    def test_batch_and_per_envelope_wires_deliver_identically(self):
        wires = self._sender_outbox()
        batched_order, batched_events, batched_stats = self._deliver(
            lambda router: router.inject(wires))
        # The reference: every (hand-built) envelope handed to the
        # in-process ``route()`` individually.
        single_order, single_events, single_stats = self._deliver(
            lambda router: [InprocRouter.route(router, envelope)
                            for envelope in self._burst()])
        # Decoded and hand-built envelopes alike reach the handler (the
        # router stamps its fabric on whatever it schedules), in
        # (arrival, row order): the 0.2 s rows first, then the 0.3 s.
        assert batched_order == single_order
        assert [kind for kind, _, _ in batched_order] == [
            "wb-small", "wb-small", "wb-small", "wb-big", "wb-big"]
        # One event per decoded row, however many share an arrival.
        assert batched_events == single_events == 5
        assert batched_stats.delivered == single_stats.delivered == 5
        assert (batched_stats.received_count_by_kind
                == single_stats.received_count_by_kind)

    def test_torn_blob_raises(self):
        (blob,) = self._sender_outbox()
        for torn in (blob[:-7], b"torn"):
            with pytest.raises((pickle.UnpicklingError, EOFError)):
                self._deliver(lambda router: router.inject([torn]))

    def test_kind_mismatch_in_batch_raises(self):
        payload = FakePayload(kind="wb-small", size=40)
        row = (intern_kind("wb-wrong-kind", register=True), 0, 1, 68,
               payload, 0.1, 0.1, 0.2)
        with pytest.raises(ValueError, match="kind mismatch"):
            self._deliver(lambda router: router.inject(
                [pickle.dumps([row], protocol=pickle.HIGHEST_PROTOCOL)]))

    def test_inject_rejects_anything_but_packed_buffers(self):
        """A pickled buffer is the only wire format: a row list that was
        never pickled is a corrupt wire, not a second path."""
        (blob,) = self._sender_outbox()
        with pytest.raises(TypeError):
            self._deliver(lambda router: router.inject(
                [blob, pickle.loads(blob)]))


# ----------------------------------------------------------------------
# property: any envelope/crash mix survives the wire byte-exact
# ----------------------------------------------------------------------
_times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                   allow_infinity=False, width=64)

#: ("env", src, dst(odd -> shard 1), payload_idx, size, send, exit, arrival)
_envelope_items = st.tuples(
    st.just("env"), st.integers(0, 19),
    st.integers(0, 9).map(lambda n: 2 * n + 1),
    st.integers(0, 3), st.integers(0, 10**9), _times, _times, _times)

#: ("crash", node_id(even -> owned by the sender), event_time)
_control_items = st.tuples(
    st.just("crash"), st.integers(0, 9).map(lambda n: 2 * n), _times)


class _AnnouncementLog(ShardRouter):
    """A receiving router that records crash announcements instead of
    verifying them against a replica."""

    __slots__ = ("announced",)

    def __init__(self, owned, shards):
        super().__init__(owned, shards)
        self.announced = []

    def _check_crash(self, *announcement):
        self.announced.append(announcement)


class TestPackedBufferRoundTrip:
    """The window buffer is lossless for arbitrary row mixes.

    Rows are driven through the real sender (``route`` for envelopes,
    ``on_crash`` for crash announcements) and the real receiver
    (``inject``, then delivery), so the property covers the full wire
    path — including crash-only buffers, which carry no payload.
    """

    @settings(max_examples=40, deadline=None)
    @given(items=st.lists(st.one_of(_envelope_items, _control_items),
                          max_size=40))
    def test_round_trip_preserves_every_row(self, items):
        sender = ShardRouter(owned=set(range(0, 20, 2)), shards=2)
        net = Network(Simulator(), latency=ConstantLatency(0.01),
                      router=sender)
        pool = [FakePayload(kind=f"wb-prop-{i}", size=10 * (i + 1))
                for i in range(4)]
        sent_envelopes, sent_controls = [], []
        for item in items:
            if item[0] == "env":
                _, src, dst, idx, size, send, exit_, arrival = item
                envelope = Envelope(src, dst, pool[idx], size, send, arrival)
                envelope._exit_time = exit_
                sender.route(envelope)
                sent_envelopes.append(
                    (src, dst, pool[idx].kind, size, send, exit_, arrival))
            else:
                _, node_id, event_time = item
                sender.on_crash(node_id, event_time)
                sent_controls.append((node_id, 0, event_time))

        sim = Simulator()
        router = _AnnouncementLog(owned=set(range(1, 20, 2)), shards=2)
        receiving = Network(sim, latency=ConstantLatency(0.01), router=router)
        sink = Sink()
        for node in router.owned:
            receiving.attach(node, sink, 1e9)
        router.inject(sender.take_outboxes()[1])
        sim.run()

        # Delivery is in (arrival time, row order).
        expected = sorted(sent_envelopes, key=lambda row: row[6])
        assert [(e.src, e.dst, e.payload.kind, e.size_bytes, e.send_time,
                 e._exit_time, e.arrival_time) for e in sink.received] \
            == expected
        assert router.announced == sent_controls
        assert net.stats.wire_control_rows == len(sent_controls)
        assert net.stats.wire_envelopes == len(sent_envelopes)
        # Rows that shipped the same payload object still share one
        # object after the round trip.
        by_kind = {}
        for envelope in sink.received:
            by_kind.setdefault(envelope.payload.kind, set()).add(
                id(envelope.payload))
        assert all(len(ids) == 1 for ids in by_kind.values())


# ----------------------------------------------------------------------
# crash control rows: owner-emitted, replica-verified
# ----------------------------------------------------------------------
class TestMembershipControlRows:
    def _router(self, owned):
        sim = Simulator()
        router = ShardRouter(owned=owned, shards=2)
        net = Network(sim, latency=ConstantLatency(0.01), router=router)
        for node in owned:
            net.attach(node, Sink(), 1e9)
        return router, net

    def test_replica_agreement_verifies_silently(self):
        sender, _ = self._router({0, 2})
        receiver, _ = self._router({1, 3})
        sender.on_crash(0, 1.5)
        wires = sender.take_outboxes()[1]
        assert len(wires) == 1
        # The receiver's replica produced the same crash at the same time.
        receiver.on_crash(0, 1.5)
        receiver.inject(wires)  # no divergence -> no error

    def test_missing_replica_event_raises(self):
        sender, _ = self._router({0, 2})
        receiver, _ = self._router({1, 3})
        sender.on_crash(2, 0.75)
        wires = sender.take_outboxes()[1]
        with pytest.raises(RuntimeError, match="membership divergence"):
            receiver.inject(wires)

    def test_mismatched_event_time_raises(self):
        sender, _ = self._router({0, 2})
        receiver, _ = self._router({1, 3})
        sender.on_crash(0, 1.5)
        wires = sender.take_outboxes()[1]
        receiver.on_crash(0, 1.25)
        with pytest.raises(RuntimeError, match="out of sync"):
            receiver.inject(wires)

    def test_unowned_events_are_recorded_but_not_announced(self):
        router, net = self._router({0, 2})
        router.on_crash(1, 2.0)  # shard 1's node
        assert router.take_outboxes() == [[], []]
        assert net.stats.wire_control_rows == 0

    def test_control_rows_do_not_count_as_envelopes(self):
        sender, net = self._router({0, 2})
        payload = FakePayload(kind="wb-ctl-mix", size=48)
        sender.route(Envelope(0, 1, payload, 76, 0.1, 0.2))
        sender.on_crash(0, 0.15)
        sender.take_outboxes()
        assert net.stats.wire_envelopes == 1
        assert net.stats.wire_control_rows == 1
        assert net.stats.wire_summary()["control_rows"] == 1


def test_stats_merge_sums_the_four_wire_counters():
    a, b = NetworkStats(), NetworkStats()
    for stats, k in ((a, 1), (b, 10)):
        stats.wire_buffers = k
        stats.wire_envelopes = 2 * k
        stats.wire_bytes = 3 * k
        stats.wire_control_rows = 4 * k
    a.merge_from(b)
    assert a.wire_summary() == {"buffers": 11, "envelopes": 22,
                                "bytes": 33, "control_rows": 44}
