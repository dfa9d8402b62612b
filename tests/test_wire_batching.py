"""Cross-shard wire batching: packing, interning, parity and counters.

The contract under test: batching a window's cross-shard outbox into one
packed buffer per peer shard is a pure *wire encoding* — the sharded
run's metric summaries stay byte-identical to the serial run — while the
serialized bytes stay below what the deleted PR 4 per-envelope format
shipped (its byte counts are frozen below as constants), because
multicast payloads are interned (one blob per peer shard, not one per
destination) and header fields travel as struct rows instead of pickled
tuples.
"""

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.latency import ConstantLatency
from repro.net.message import Envelope, intern_kind
from repro.net.network import Network
from repro.net.router import InprocRouter
from repro.net.shard import (EVENT_CRASH, EVENT_JOIN, WIRE_BATCH_TAG,
                             ShardRouter, _decode_batch, run_sharded,
                             window_count)
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


# ----------------------------------------------------------------------
# parity: batching is invisible to the results
# ----------------------------------------------------------------------
#: What the deleted per-envelope wire format cost on
#: ``sharded_config(shards=2)``, in bytes per envelope: one wire unit per
#: envelope, the whole pickled tuple per unit.  Measured at a9ff8a0
#: (Python 3.11) as 1,736,470 wire and 1,289,605 payload bytes over
#: 8,315 envelopes; kept as rates so a change to the scenario's random
#: draws (which moves the traffic a little) needs no re-measurement of a
#: format that no longer exists.
PER_ENVELOPE_WIRE_BYTES = 208.8
PER_ENVELOPE_PAYLOAD_BYTES = 155.1


class TestBatchingParity:
    def test_batched_matches_serial(self):
        from repro.experiments.runner import run_scenario

        config = sharded_config()
        serial = summary_blob(run_scenario(config))
        batched = run_sharded(config.with_(shards=2), processes=False)
        assert summary_blob(batched) == serial

    def test_batching_reduces_serialized_bytes(self):
        """The point of batching: fewer bytes cross the shard boundary
        than one pickled tuple per envelope would ship."""
        stats = run_sharded(sharded_config(shards=2),
                            processes=False).net.stats
        envelopes = stats.wire_envelopes
        assert 0 < stats.wire_buffers < envelopes  # fewer wire units
        assert 0 < stats.wire_bytes / envelopes < PER_ENVELOPE_WIRE_BYTES
        # Interning bites: the pooled payload bytes beat per-envelope
        # pickling, which by construction cannot dedup anything — and the
        # before-interning counter still measures exactly that.
        assert stats.wire_payload_bytes < stats.wire_payload_bytes_before
        assert stats.wire_payload_bytes_before / envelopes == pytest.approx(
            PER_ENVELOPE_PAYLOAD_BYTES, rel=0.01)

    def test_wire_counters_survive_the_harvest_merge(self):
        config = sharded_config(shards=3)
        merged = run_sharded(config, processes=False)
        summary = merged.net.stats.wire_summary()
        assert summary["buffers"] > 0
        assert summary["envelopes"] > 0
        assert summary["bytes"] > 0
        assert (summary["payload_bytes_after_interning"]
                <= summary["payload_bytes_before_interning"])

    def test_window_count_matches_wire_buffer_ceiling(self):
        config = sharded_config(shards=2)
        windows = window_count(config)
        assert windows == pytest.approx(config.end_time
                                        / config.latency_floor, abs=1)
        merged = run_sharded(config, processes=False)
        # Per shard pair at most one buffer per window in each direction.
        assert merged.net.stats.wire_buffers <= windows * 2


# ----------------------------------------------------------------------
# interning: one payload blob per peer shard
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
        assert len(outboxes[1]) == 1 and len(outboxes[2]) == 1
        for target, expected_rows in ((1, 3), (2, 2)):
            tag, n_rows, header, blob = outboxes[target][0]
            assert tag == WIRE_BATCH_TAG
            assert n_rows == expected_rows
            pool = pickle.loads(blob)
            assert len(pool) == 1  # ONE blob despite the fan-out
            assert pool[0].kind == "wb-fanout"

    def test_decoded_rows_share_the_interned_payload(self):
        net, outboxes, payload = self._fanout_outboxes()
        envelopes = list(_decode_batch(outboxes[1][0]))
        assert [e.dst for e in envelopes] == [1, 4, 7]
        assert len({id(e.payload) for e in envelopes}) == 1
        assert all(e.size_bytes == envelopes[0].size_bytes
                   for e in envelopes)

    def test_interning_counters_are_exact(self):
        net, outboxes, payload = self._fanout_outboxes()
        stats = net.stats
        individual = len(pickle.dumps(payload,
                                      protocol=pickle.HIGHEST_PROTOCOL))
        pooled = len(pickle.dumps([payload],
                                  protocol=pickle.HIGHEST_PROTOCOL))
        assert stats.wire_buffers == 2
        assert stats.wire_envelopes == 5
        assert stats.wire_payload_bytes_before == 5 * individual
        assert stats.wire_payload_bytes == 2 * pooled
        assert stats.wire_payload_bytes < stats.wire_payload_bytes_before

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
        # A fresh window re-ships the payload: no cross-window interning.
        assert len(first[1]) == 1 and len(second[1]) == 1
        assert len(pickle.loads(second[1][0][3])) == 1


# ----------------------------------------------------------------------
# decode: batches deliver exactly like envelopes routed one by one
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
        sim = Simulator()
        router = ShardRouter(owned={1}, shards=2)
        net = Network(sim, latency=ConstantLatency(0.01), router=router)
        sink = Sink()
        net.attach(1, sink, 1e9)
        receive(router)
        sim.run()
        order = [(e.payload.kind, e.arrival_time, e.size_bytes)
                 for e in sink.received]
        return order, sim.events_executed, net.stats

    def test_batch_and_per_envelope_wires_deliver_identically(self):
        wires = self._sender_outbox()
        batched_order, batched_events, batched_stats = self._deliver(
            lambda router: router.inject(wires))
        # The reference: every (hand-built) envelope handed to the
        # in-process ``route()`` individually, as a per-envelope
        # exchange would.
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
        assert batched_stats.bytes_received == single_stats.bytes_received
        assert (batched_stats.received_count_by_kind
                == single_stats.received_count_by_kind)
        assert (batched_stats.received_bytes_by_kind
                == single_stats.received_bytes_by_kind)
        assert (batched_stats.per_node[1].bytes_down
                == single_stats.per_node[1].bytes_down)

    def test_corrupt_header_length_raises(self):
        (tag, n_rows, header, blob), = self._sender_outbox()
        with pytest.raises(ValueError, match="corrupt"):
            self._deliver(lambda router: router.inject(
                [(tag, n_rows + 1, header, blob)]))

    def test_kind_mismatch_in_batch_raises(self):
        import struct

        from repro.net.shard import _ROW

        (tag, n_rows, header, blob), = self._sender_outbox()
        row = list(_ROW.unpack(header[:_ROW.size]))
        row[0] = intern_kind("wb-wrong-kind", register=True)
        tampered = _ROW.pack(*row) + header[_ROW.size:]
        with pytest.raises(ValueError, match="kind mismatch"):
            self._deliver(lambda router: router.inject(
                [(tag, n_rows, tampered, blob)]))

    def test_inject_rejects_anything_but_packed_buffers(self):
        """Packed buffers are the only wire format: a per-envelope tuple
        (first element a node id) is a corrupt wire, not a second path."""
        payload = FakePayload(kind="wb-single", size=24)
        single = (0, 1, payload.kind_id, 52, 0.0, 0.0, 0.4,
                  pickle.dumps(payload))
        with pytest.raises(ValueError, match="unknown wire tag 0"):
            self._deliver(lambda router: router.inject(
                self._sender_outbox() + [single]))


# ----------------------------------------------------------------------
# property: any envelope/control mix survives the codec byte-exact
# ----------------------------------------------------------------------
_times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                   allow_infinity=False, width=64)

#: ("env", src, dst(odd -> shard 1), payload_idx, size, send, exit, arrival)
_envelope_items = st.tuples(
    st.just("env"), st.integers(0, 19),
    st.integers(0, 9).map(lambda n: 2 * n + 1),
    st.integers(0, 3), st.integers(0, 10**9), _times, _times, _times)

#: ("ctl", event, node_id(even -> owned by the sender), event_time)
_control_items = st.tuples(
    st.just("ctl"), st.sampled_from((EVENT_CRASH, EVENT_JOIN)),
    st.integers(0, 9).map(lambda n: 2 * n), _times)


class TestPackedBufferRoundTrip:
    """The packed window buffer is lossless for arbitrary row mixes.

    Rows are driven through the real sender (``route`` for envelopes,
    ``on_membership_event`` for membership announcements) and the real
    decoder, so the property covers the full codec path: struct packing,
    payload-pool interning, negative-``kind_id`` escape for control rows
    — including control-only buffers, whose payload pool is empty.
    """

    @settings(max_examples=40, deadline=None)
    @given(items=st.lists(st.one_of(_envelope_items, _control_items),
                          max_size=40))
    def test_round_trip_preserves_every_row(self, items):
        sim = Simulator()
        router = ShardRouter(owned=set(range(0, 20, 2)), shards=2)
        net = Network(sim, latency=ConstantLatency(0.01), router=router)
        pool = [FakePayload(kind=f"wb-prop-{i}", size=10 * (i + 1))
                for i in range(4)]
        sent_envelopes, sent_controls = [], []
        for item in items:
            if item[0] == "env":
                _, src, dst, idx, size, send, exit_, arrival = item
                envelope = Envelope(src, dst, pool[idx], size, send, arrival)
                envelope._exit_time = exit_
                router.route(envelope)
                sent_envelopes.append(
                    (src, dst, pool[idx].kind, size, send, exit_, arrival))
            else:
                _, event, node_id, event_time = item
                router.on_membership_event(event, node_id, event_time)
                sent_controls.append((event, node_id, 0, event_time))

        controls = []
        decoded = []
        for wire in router.take_outboxes()[1]:
            assert wire[0] == WIRE_BATCH_TAG
            decoded.extend(_decode_batch(
                wire, lambda *control: controls.append(control)))

        assert [(e.src, e.dst, e.payload.kind, e.size_bytes, e.send_time,
                 e._exit_time, e.arrival_time) for e in decoded] \
            == sent_envelopes
        assert controls == sent_controls
        assert net.stats.wire_control_rows == len(sent_controls)
        assert net.stats.wire_envelopes == len(sent_envelopes)
        # Interning: rows that shipped the same payload object still
        # share one object after the round trip.
        by_kind = {}
        for envelope in decoded:
            by_kind.setdefault(envelope.payload.kind, set()).add(
                id(envelope.payload))
        assert all(len(ids) == 1 for ids in by_kind.values())


# ----------------------------------------------------------------------
# membership control rows: owner-emitted, replica-verified
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
        sender.on_membership_event(EVENT_CRASH, 0, 1.5)
        wires = sender.take_outboxes()[1]
        assert len(wires) == 1
        # The receiver's replica produced the same crash at the same time.
        receiver.on_membership_event(EVENT_CRASH, 0, 1.5)
        receiver.inject(wires)  # no divergence -> no error

    def test_missing_replica_event_raises(self):
        sender, _ = self._router({0, 2})
        receiver, _ = self._router({1, 3})
        sender.on_membership_event(EVENT_CRASH, 2, 0.75)
        wires = sender.take_outboxes()[1]
        with pytest.raises(RuntimeError, match="membership divergence"):
            receiver.inject(wires)

    def test_mismatched_event_time_raises(self):
        sender, _ = self._router({0, 2})
        receiver, _ = self._router({1, 3})
        sender.on_membership_event(EVENT_CRASH, 0, 1.5)
        wires = sender.take_outboxes()[1]
        receiver.on_membership_event(EVENT_CRASH, 0, 1.25)
        with pytest.raises(RuntimeError, match="out of sync"):
            receiver.inject(wires)

    def test_unowned_events_are_recorded_but_not_announced(self):
        router, net = self._router({0, 2})
        router.on_membership_event(EVENT_CRASH, 1, 2.0)  # shard 1's node
        assert router.take_outboxes() == [[], []]
        assert net.stats.wire_control_rows == 0

    def test_control_rows_do_not_count_as_envelopes(self):
        sender, net = self._router({0, 2})
        payload = FakePayload(kind="wb-ctl-mix", size=48)
        sender.route(Envelope(0, 1, payload, 76, 0.1, 0.2))
        sender.on_membership_event(EVENT_CRASH, 0, 0.15)
        sender.take_outboxes()
        assert net.stats.wire_envelopes == 1
        assert net.stats.wire_control_rows == 1
        assert net.stats.wire_summary()["control_rows"] == 1

    def test_decoding_control_rows_without_handler_raises(self):
        sender, _ = self._router({0, 2})
        sender.on_membership_event(EVENT_CRASH, 0, 1.0)
        (wire,), = [sender.take_outboxes()[1]]
        with pytest.raises(ValueError, match="control handler"):
            list(_decode_batch(wire))
