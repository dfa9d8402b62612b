"""Traffic accounting against a per-datagram reference model.

The fabric counts in bulk: ``send_many`` charges a fan-out with one
accumulation per counter, the receive side counts per kind only, and
``sent``/``bytes_sent``/``delivered`` are sums of the per-kind lists.  The reference here counts one datagram at a time, with
its own uplink queues and loss stream (same seeds, so the same drops),
and predicts every delivery from the crash rules.  Random mixes of
``send``/``send_many``, crashes and clock advances must agree with it
after every operation, and again after ``merge_from``.
"""

import itertools
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.bandwidth import UplinkQueue
from repro.net.latency import ConstantLatency
from repro.net.loss import BernoulliLoss, NoLoss
from repro.net.message import UDP_IP_HEADER_BYTES, Envelope, intern_kind
from repro.net.network import Network
from repro.net.stats import NetworkStats
from repro.sim.engine import Simulator

LATENCY = 0.05
#: node -> (uplink bps, queue cap): node 0's 8 kb/s uplink drops a second
#: datagram sent within ~1 s of the first at its 0.3 s cap.
UPLINKS = {0: (8000.0, 0.3), 1: (1e6, None), 2: (1e6, None), 3: (1e6, None)}
ATTACHED = tuple(UPLINKS)
#: Never attached: a send from it is refused, a send to it dies on arrival.
UNATTACHED = 4
NODES = ATTACHED + (UNATTACHED,)
#: kind name -> payload size; the third kind is registered per example,
#: after the fabric (and its stats) was built.
KINDS = {"acct-a": 72, "acct-b": 972}
_late_names = (f"acct-late-{n}" for n in itertools.count())


class Payload:
    __slots__ = ("kind", "kind_id", "_size")

    def __init__(self, kind, size):
        self.kind = kind
        self.kind_id = intern_kind(kind, register=True)
        self._size = size

    def wire_size(self):
        return self._size


class Sink:
    def on_message(self, envelope):
        pass


def _slots(envelope):
    return tuple(getattr(envelope, name) for name in Envelope.__slots__)


class Reference:
    """Counts one datagram at a time; predicts every arrival."""

    def __init__(self, loss_rate, seed):
        self.loss = (BernoulliLoss(random.Random(seed), loss_rate)
                     if loss_rate else None)
        self.uplinks = {node: UplinkQueue(bps, max_delay=cap)
                        for node, (bps, cap) in UPLINKS.items()}
        self.crashed = {}
        self.in_flight = []     # (arrival, order, src, dst, kind, size, exit)
        self.envelopes = []     # slot tuples of every routed envelope
        self.sent = Counter()
        self.sent_bytes = Counter()
        self.received = Counter()
        self.lost = self.dropped_queue = self.dropped_dead = 0

    def send(self, now, src, dst, payload):
        if src not in self.uplinks or src in self.crashed:
            return
        size = payload.wire_size() + UDP_IP_HEADER_BYTES
        exit_time = self.uplinks[src].enqueue(now, size)
        if exit_time is None:
            self.dropped_queue += 1
            return
        self.sent[payload.kind] += 1
        self.sent_bytes[payload.kind] += size
        if self.loss is not None and self.loss.is_lost(src, dst):
            self.lost += 1
            return
        envelope = Envelope(src, dst, payload, size, now, exit_time + LATENCY)
        envelope._exit_time = exit_time
        self.envelopes.append(_slots(envelope))
        self.in_flight.append((envelope.arrival_time, len(self.envelopes),
                               src, dst, payload.kind, size, exit_time))

    def crash(self, now, node):
        if node in self.uplinks and node not in self.crashed:
            self.crashed[node] = now

    def advance(self, until):
        self.in_flight.sort()
        while self.in_flight and self.in_flight[0][0] <= until:
            _, _, src, dst, kind, size, exit_time = self.in_flight.pop(0)
            src_crash = self.crashed.get(src)
            if ((src_crash is not None and exit_time > src_crash)
                    or dst in self.crashed or dst not in self.uplinks):
                self.dropped_dead += 1
                continue
            self.received[kind] += 1

    def expected(self, times=1):
        def scaled(counter):
            return {kind: times * value for kind, value in counter.items()}

        return {
            "sent": times * sum(self.sent.values()),
            "bytes_sent": times * sum(self.sent_bytes.values()),
            "delivered": times * sum(self.received.values()),
            "count_by_kind": scaled(self.sent),
            "bytes_by_kind": scaled(self.sent_bytes),
            "received_count_by_kind": scaled(self.received),
            "lost": times * self.lost,
            "dropped_queue": times * self.dropped_queue,
            "dropped_dead": times * self.dropped_dead,
        }


def matches(stats, expected):
    """Every counter ``expected`` names reads its expected value (the
    per-kind views are ``defaultdict``s, which compare like dicts)."""
    return {name: getattr(stats, name) for name in expected} == expected


_kind = st.integers(0, 2)
_ops = st.lists(st.one_of(
    st.tuples(st.just("send"), st.sampled_from(NODES),
              st.sampled_from(NODES), _kind),
    st.tuples(st.just("many"), st.sampled_from(NODES),
              st.lists(st.sampled_from(NODES), max_size=6), _kind),
    st.tuples(st.just("crash"), st.sampled_from(NODES)),
    st.tuples(st.just("advance"), st.sampled_from((0.01, 0.05, 0.4, 1.3))),
), max_size=40)


@settings(max_examples=80, deadline=None)
@given(ops=_ops, loss_rate=st.sampled_from((0.0, 0.3)),
       seed=st.integers(0, 2 ** 16))
def test_counters_match_a_per_datagram_reference(ops, loss_rate, seed):
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(LATENCY),
                  loss=(BernoulliLoss(random.Random(seed), loss_rate)
                        if loss_rate else NoLoss()))
    for node, (bps, cap) in UPLINKS.items():
        net.attach(node, Sink(), bps, max_queue_delay=cap)
    built_early = NetworkStats()
    # Registered after both stats objects sized their per-kind lists.
    kinds = dict(KINDS, **{next(_late_names): 300})
    payloads = [Payload(kind, size) for kind, size in kinds.items()]
    reference = Reference(loss_rate, seed)
    routed = []
    route = net._route

    def capture(envelope):
        routed.append(_slots(envelope))
        route(envelope)

    net._route = capture
    for op in ops:
        now = sim.now
        if op[0] == "send":
            _, src, dst, kind = op
            net.send(src, dst, payloads[kind])
            reference.send(now, src, dst, payloads[kind])
        elif op[0] == "many":
            _, src, dsts, kind = op
            net.send_many(src, dsts, payloads[kind])
            for dst in dsts:
                reference.send(now, src, dst, payloads[kind])
        elif op[0] == "crash":
            net.crash(op[1])
            reference.crash(now, op[1])
        else:
            sim.run(until=now + op[1])
            reference.advance(sim.now)
        assert matches(net.stats, reference.expected())
        assert routed == reference.envelopes
    sim.run()
    reference.advance(float("inf"))
    assert matches(net.stats, reference.expected())

    built_early.merge_from(net.stats)
    assert matches(built_early, reference.expected())
    built_early.merge_from(net.stats)
    assert matches(built_early, reference.expected(times=2))
    assert matches(net.stats, reference.expected())


def test_fast_path_envelopes_equal_constructed_ones_slot_for_slot():
    """``send``/``send_many`` skip ``Envelope.__init__``; what they route
    must be exactly ``Envelope(...)`` with the uplink exit time stored."""
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(LATENCY))
    for node in (1, 2, 3):
        net.attach(node, Sink(), 8e5)
    routed = []
    net._route = routed.append
    payload = Payload("acct-a", KINDS["acct-a"])
    sim.run(until=0.25)
    net.send(1, 2, payload)
    net.send_many(1, [3, 2, 3], payload)
    size = KINDS["acct-a"] + UDP_IP_HEADER_BYTES
    uplink = UplinkQueue(8e5)
    expected = []
    for dst in (2, 3, 2, 3):
        exit_time = uplink.enqueue(0.25, size)
        envelope = Envelope(1, dst, payload, size, 0.25, exit_time + LATENCY)
        envelope._exit_time = exit_time
        expected.append(_slots(envelope))
    assert all(type(envelope) is Envelope for envelope in routed)
    assert [_slots(envelope) for envelope in routed] == expected
