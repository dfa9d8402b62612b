"""Tests for the gossip-based capability aggregation protocol."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import AggregationMessage, CapabilityAggregator
from repro.membership.directory import MembershipDirectory
from repro.membership.view import LocalView
from repro.net.latency import ConstantLatency, PerPairLatency
from repro.net.loss import PerPairLoss
from repro.net.network import Network
from repro.sim.engine import Simulator


class AggEndpoint:
    """Minimal endpoint wrapping one aggregator."""

    def __init__(self, aggregator):
        self.aggregator = aggregator

    def on_message(self, envelope):
        self.aggregator.on_message(envelope.src, envelope.payload)


def build_system(capabilities, seed=0, period=0.2, fresh_count=10, fanout=7,
                 sample_ttl=10.0):
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(0.02))
    directory = MembershipDirectory(sim, random.Random(seed), mean_detection_delay=0.0)
    directory.register_all(range(len(capabilities)))
    aggregators = []
    for node_id, capability in enumerate(capabilities):
        agg = CapabilityAggregator(
            sim, net, node_id, capability=lambda c=capability: c,
            view=directory.view_of(node_id), rng=random.Random(seed * 7919 + node_id),
            period=period, fresh_count=fresh_count, fanout=fanout,
            sample_ttl=sample_ttl)
        net.attach(node_id, AggEndpoint(agg), upload_capacity_bps=10e6)
        aggregators.append(agg)
    for agg in aggregators:
        agg.start()
    return sim, net, directory, aggregators


def test_initial_estimate_is_own_capability():
    sim = Simulator()
    net = Network(sim)
    agg = CapabilityAggregator(sim, net, 0, capability=lambda: 512.0,
                               view=None, rng=random.Random(1))
    assert agg.average_estimate() == 512.0
    assert agg.relative_capability() == 1.0


def test_estimates_converge_to_true_average():
    capabilities = [3000.0] * 2 + [1000.0] * 4 + [512.0] * 24
    true_average = sum(capabilities) / len(capabilities)
    sim, net, directory, aggregators = build_system(capabilities)
    sim.run(until=5.0)
    estimates = [agg.average_estimate() for agg in aggregators]
    for estimate in estimates:
        assert estimate == pytest.approx(true_average, rel=0.15)
    mean_estimate = sum(estimates) / len(estimates)
    assert mean_estimate == pytest.approx(true_average, rel=0.08)


def test_relative_capability_orders_nodes():
    capabilities = [3000.0, 1000.0, 512.0, 512.0, 512.0, 512.0]
    sim, net, directory, aggregators = build_system(capabilities, fanout=3)
    sim.run(until=5.0)
    rel = [agg.relative_capability() for agg in aggregators]
    assert rel[0] > rel[1] > rel[2]
    assert rel[0] == pytest.approx(3000.0 / aggregators[0].average_estimate())


def test_sample_table_grows_beyond_direct_partners():
    capabilities = [700.0] * 40
    sim, net, directory, aggregators = build_system(capabilities, fanout=2)
    sim.run(until=5.0)
    # With fanout 2 but relayed samples, tables should know many peers.
    assert all(agg.sample_count() > 10 for agg in aggregators)


def test_freshest_returns_newest_first_and_caps_count():
    sim = Simulator()
    net = Network(sim)
    agg = CapabilityAggregator(sim, net, 0, capability=lambda: 100.0,
                               view=None, rng=random.Random(1), fresh_count=3)
    agg.on_message(9, AggregationMessage([(1, 200.0, 5.0), (2, 300.0, 9.0),
                                          (3, 400.0, 1.0)]))
    sim.run(until=10.0)
    agg.start(phase=1.0)  # own sample, stamped now: the freshest of all
    assert agg.sample_count() == 4
    assert agg.freshest(3) == [(0, 100.0, 10.0), (2, 300.0, 9.0),
                               (1, 200.0, 5.0)]


def test_merge_keeps_freshest_sample():
    sim = Simulator()
    net = Network(sim)
    agg = CapabilityAggregator(sim, net, 0, capability=lambda: 100.0,
                               view=None, rng=random.Random(1))
    agg.on_message(1, AggregationMessage([(5, 500.0, 2.0)]))
    agg.on_message(2, AggregationMessage([(5, 999.0, 1.0)]))  # staler
    assert agg.freshest(10) == [(5, 500.0, 2.0)]
    assert agg.average_estimate() == 500.0
    agg.on_message(3, AggregationMessage([(5, 700.0, 3.0)]))  # fresher
    assert agg.freshest(10) == [(5, 700.0, 3.0)]
    assert agg.average_estimate() == 700.0


def test_relayed_samples_are_the_tuples_their_origin_made():
    """A -> B -> C: every hop stores and forwards the sample object A's
    own refresh created; nothing along the way copies it."""
    sim = Simulator()
    net = Network(sim)
    a, b, c = (CapabilityAggregator(sim, net, node, capability=lambda: 100.0,
                                    view=None, rng=random.Random(node))
               for node in range(3))
    sim.run(until=0.5)
    a._refresh_own_sample()
    own = a.freshest(1)[0]
    assert own == (0, 100.0, 0.5)
    assert a.freshest(1)[0] is own  # a table entry, not a new tuple
    b.on_message(0, AggregationMessage(a.freshest(10)))
    c.on_message(1, AggregationMessage(b.freshest(10)))
    relayed = [sample for sample in c.freshest(10) if sample[0] == 0]
    assert relayed == [own] and relayed[0] is own


def test_own_sample_never_overwritten_by_gossip():
    sim = Simulator()
    net = Network(sim)
    agg = CapabilityAggregator(sim, net, 0, capability=lambda: 100.0,
                               view=None, rng=random.Random(1))
    agg.start(phase=1.0)
    agg.on_message(1, AggregationMessage([(0, 99999.0, 100.0)]))
    assert agg.freshest(10) == [(0, 100.0, 0.0)]
    assert agg.average_estimate() == 100.0


def test_stale_samples_evicted():
    capabilities = [700.0] * 10
    sim, net, directory, aggregators = build_system(capabilities, sample_ttl=1.0)
    sim.run(until=3.0)
    agg = aggregators[0]
    assert agg.sample_count() > 1
    # Stop everyone; samples now age without refresh.
    for a in aggregators:
        a.stop()
    sim.run(until=10.0)
    agg._evict_stale()
    # Only the node's own sample survives eviction.
    assert agg.sample_count() == 1


def test_a_round_evicts_stale_samples_without_incoming_messages():
    """Once its peers fall silent, a node's own rounds must still age
    their samples out: the estimate returns to its own capability."""
    capabilities = [700.0] + [100.0] * 9
    sim, net, directory, aggregators = build_system(capabilities, sample_ttl=1.0)
    sim.run(until=3.0)
    agg = aggregators[0]
    assert agg.sample_count() > 1
    for other in aggregators[1:]:
        other.stop()
    sim.run(until=4.5)
    assert agg.sample_count() == 1
    assert agg.average_estimate() == 700.0


def test_aggregation_traffic_is_marginal():
    """The paper: ~1 KB/s per node at defaults, 'completely marginal'."""
    capabilities = [700_000.0] * 30
    sim, net, directory, aggregators = build_system(capabilities)
    sim.run(until=10.0)
    bytes_per_node_per_second = net.stats.bytes_sent / 30 / 10.0
    assert bytes_per_node_per_second < 12_000  # ~10 msgs/s * ~1.1 KB


def test_message_wire_size():
    message = AggregationMessage([(1, 2.0, 3.0)] * 10)
    assert message.wire_size() == 8 + 12 * 10


def test_estimate_tracks_capability_change():
    """When a node's capability changes, estimates follow within the TTL."""
    state = {"cap": 512.0}
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(0.02))
    directory = MembershipDirectory(sim, random.Random(0), mean_detection_delay=0.0)
    directory.register_all(range(4))
    aggregators = []
    for node_id in range(4):
        capability = (lambda: state["cap"]) if node_id == 0 else (lambda: 512.0)
        agg = CapabilityAggregator(sim, net, node_id, capability=capability,
                                   view=directory.view_of(node_id),
                                   rng=random.Random(node_id), fanout=3,
                                   sample_ttl=2.0)
        net.attach(node_id, AggEndpoint(agg), upload_capacity_bps=10e6)
        aggregators.append(agg)
    for agg in aggregators:
        agg.start()
    sim.run(until=3.0)
    before = aggregators[1].average_estimate()
    state["cap"] = 5120.0
    sim.run(until=8.0)
    after = aggregators[1].average_estimate()
    assert after > before * 1.5


# ----------------------------------------------------------------------
# The sample table: same behaviour as one (capability, timestamp) tuple
# per node
# ----------------------------------------------------------------------
class _RefAggregator:
    """``CapabilityAggregator``'s sample table as it was before it became
    two dicts: ``node -> (capability, timestamp)``, sorted through a
    Python-level key, summed through a generator.  The reference the
    columnar table must be indistinguishable from."""

    def __init__(self, sim, node_id, capability, sample_ttl):
        self._sim = sim
        self.node_id = node_id
        self._capability = capability
        self.sample_ttl = sample_ttl
        self._samples = {}
        self._oldest_ts = float("inf")

    def _refresh_own_sample(self):
        self._samples[self.node_id] = (self._capability(), self._sim.now)

    def _evict_stale(self):
        if self.sample_ttl <= 0:
            return
        cutoff = self._sim.now - self.sample_ttl
        if self._oldest_ts >= cutoff:
            return
        stale = [node for node, (_, ts) in self._samples.items()
                 if ts < cutoff and node != self.node_id]
        for node in stale:
            del self._samples[node]
        own = self.node_id
        self._oldest_ts = min(
            (ts for node, (_, ts) in self._samples.items() if node != own),
            default=float("inf"))

    def freshest(self, count):
        ordered = sorted(self._samples.items(), key=lambda item: item[1][1],
                         reverse=True)
        return [(node, cap, ts) for node, (cap, ts) in ordered[:count]]

    def sample_count(self):
        return len(self._samples)

    def average_estimate(self):
        if not self._samples:
            return self._capability()
        return sum(cap for cap, _ in self._samples.values()) / len(self._samples)

    def on_message(self, src, message):
        samples = self._samples
        own = self.node_id
        oldest = self._oldest_ts
        for node, capability, timestamp in message.samples:
            if node == own:
                continue
            existing = samples.get(node)
            if existing is None or timestamp > existing[1]:
                samples[node] = (capability, timestamp)
                if timestamp < oldest:
                    oldest = timestamp
        self._oldest_ts = oldest
        self._evict_stale()


_OWN = 3
#: Few nodes, few distinct timestamps and capabilities that do not sum
#: exactly: ties, staler/fresher updates of a known node, own-id samples
#: and float-summation order all come up constantly.
_SAMPLE = st.tuples(st.integers(0, 7),
                    st.sampled_from([0.1, 0.7, 512.3, 1000.0 / 3.0, 3e6 + 0.1]),
                    st.integers(0, 12).map(lambda tick: tick * 0.5))
_STEPS = st.one_of(
    st.tuples(st.just("message"), st.lists(_SAMPLE, max_size=6)),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.5, 1.5, 4.0])),
    st.tuples(st.just("refresh"), st.none()),
)


@settings(max_examples=200, deadline=None)
@given(sample_ttl=st.sampled_from([2.0, 3.5, 10.0, 0.0]),
       steps=st.lists(_STEPS, max_size=30))
def test_columnar_table_matches_the_tuple_table_reference(sample_ttl, steps):
    """Any interleaving of ``on_message`` batches (tied timestamps, own-id
    samples, staler and fresher updates), clock advances past
    ``sample_ttl`` (evictions, then re-insertion at the table's end) and
    own-sample refreshes: identical ``freshest(k)`` with its order,
    bit-equal ``average_estimate()``, same ``sample_count()`` and the
    same eviction bound."""
    sims = (Simulator(), Simulator())
    new = CapabilityAggregator(sims[0], Network(sims[0]), _OWN,
                               capability=lambda: 691.7, view=None,
                               rng=random.Random(1), sample_ttl=sample_ttl)
    ref = _RefAggregator(sims[1], _OWN, lambda: 691.7, sample_ttl)

    def check():
        for count in (1, 3, 10, 100):
            assert new.freshest(count) == ref.freshest(count)
        assert new.average_estimate().hex() == ref.average_estimate().hex()
        assert new.sample_count() == ref.sample_count()
        assert new._oldest_ts == ref._oldest_ts

    check()
    for step, arg in steps:
        if step == "message":
            for agg in (new, ref):
                agg.on_message(0, AggregationMessage(list(arg)))
        elif step == "advance":
            for sim in sims:
                sim.run(until=sim.now + arg)
        else:
            for agg in (new, ref):
                agg._refresh_own_sample()
                agg._evict_stale()
        check()


class _SendManyOnly(Network):
    """A fabric whose unicast ``send`` goes through ``send_many``."""

    __slots__ = ()

    def send(self, src, dst, payload):
        self.send_many(src, [dst], payload)


class _Sink:
    def __init__(self):
        self.arrivals = []

    def on_message(self, envelope):
        self.arrivals.append((envelope.arrival_time, envelope.size_bytes))


def _one_partner_rounds(fabric, loss_rate, capacity):
    sim = Simulator()
    loss = PerPairLoss(3, loss_rate) if loss_rate else None
    net = fabric(sim, latency=PerPairLatency(3), loss=loss)
    agg = CapabilityAggregator(sim, net, 0, capability=lambda: 512.0,
                               view=LocalView(0, [1]), rng=random.Random(4),
                               fanout=1)
    net.attach(0, AggEndpoint(agg), upload_capacity_bps=capacity,
               max_queue_delay=1.0)
    sink = _Sink()
    net.attach(1, sink, upload_capacity_bps=10e6)
    agg.start()
    sim.run(until=6.0)
    stats = net.stats
    return sink.arrivals, (stats.lost, stats.dropped_queue, stats.dropped_dead,
                           stats.bytes_by_kind, stats.count_by_kind,
                           stats.received_count_by_kind)


@pytest.mark.parametrize("loss_rate,capacity,counter", [
    (0.0, 10e6, None), (0.3, 10e6, 0), (0.0, 1_000.0, 1)])
def test_a_one_partner_round_counts_like_a_one_destination_send_many(
        loss_rate, capacity, counter):
    """A one-partner round calls ``Network.send``: every datagram, loss
    draw, queue drop and counter matches ``send_many`` to that one
    destination."""
    arrivals, stats = _one_partner_rounds(Network, loss_rate, capacity)
    assert arrivals and stats[4]["aggregation"] > 0
    if counter is not None:
        assert stats[counter] > 0  # the lossy / capped path is exercised
    assert (arrivals, stats) == _one_partner_rounds(_SendManyOnly, loss_rate,
                                                    capacity)
