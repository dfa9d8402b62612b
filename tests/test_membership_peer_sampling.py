"""Tests for the Cyclon-style peer sampling service."""

import random
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.membership.peer_sampling import (
    PeerSamplingService, ShuffleReply, ShuffleRequest)
from repro.membership.view import LocalView
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer


def build_swarm(n=20, view_size=8, shuffle_length=4, seed=0, period=1.0):
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(0.01))
    rng = random.Random(seed)
    services = []
    for node_id in range(n):
        service = PeerSamplingService(
            sim, net, node_id, random.Random(seed * 1000 + node_id),
            view_size=view_size, shuffle_length=shuffle_length, period=period)
        net.attach(node_id, service, upload_capacity_bps=10e6)
        services.append(service)
    # Bootstrap in a ring so the initial graph is connected but far from random.
    for node_id, service in enumerate(services):
        service.bootstrap([(node_id + i) % n for i in range(1, 4)])
    for service in services:
        service.start(phase=rng.uniform(0, period))
    return sim, net, services


def test_bootstrap_fills_view():
    sim, net, services = build_swarm(n=10)
    assert services[0].neighbors() == [1, 2, 3]


def test_bootstrap_skips_self_and_respects_capacity():
    sim = Simulator()
    net = Network(sim)
    service = PeerSamplingService(sim, net, 0, random.Random(1), view_size=3, shuffle_length=2)
    service.bootstrap([0, 1, 2, 3, 4, 5])
    assert len(service.neighbors()) == 3
    assert 0 not in service.neighbors()


def test_shuffle_length_bounded_by_view_size():
    sim = Simulator()
    net = Network(sim)
    with pytest.raises(ValueError):
        PeerSamplingService(sim, net, 0, random.Random(1), view_size=4, shuffle_length=5)


def test_views_fill_to_capacity_over_time():
    sim, net, services = build_swarm(n=20, view_size=8)
    sim.run(until=30.0)
    sizes = [len(s.neighbors()) for s in services]
    assert min(sizes) >= 6  # essentially all views should be near-full


def test_view_never_contains_self_or_duplicates():
    sim, net, services = build_swarm(n=15)
    sim.run(until=20.0)
    for service in services:
        neighbors = service.neighbors()
        assert service.node_id not in neighbors
        assert len(neighbors) == len(set(neighbors))
        assert len(neighbors) <= service.view_size


def test_overlay_becomes_connected_and_mixed():
    # Starting from a ring, shuffling should spread links widely: the union
    # of in-degree should cover all nodes and views should not remain the
    # initial ring neighbors.
    sim, net, services = build_swarm(n=30, view_size=8)
    initial = {s.node_id: set(s.neighbors()) for s in services}
    sim.run(until=60.0)
    moved = sum(1 for s in services if set(s.neighbors()) != initial[s.node_id])
    assert moved > 25
    pointed_at = set()
    for service in services:
        pointed_at.update(service.neighbors())
    assert len(pointed_at) == 30


def test_dead_entries_eventually_flushed():
    sim, net, services = build_swarm(n=20, view_size=6, shuffle_length=3)
    sim.run(until=10.0)
    net.crash(5)
    services[5].stop()
    sim.run(until=300.0)
    holders = [s for s in services if s.node_id != 5 and 5 in s.neighbors()]
    # Aging + shuffle-consumption makes stale entries rare; allow a small tail.
    assert len(holders) <= 2


def test_local_view_mirror_tracks_entries():
    sim, net, services = build_swarm(n=10)
    sim.run(until=10.0)
    for service in services:
        assert sorted(service.view.members()) == service.neighbors()


def test_shuffle_request_wire_size():
    request = ShuffleRequest([(1, 0), (2, 3)])
    assert request.wire_size() == 8 + 12 * 2


# ----------------------------------------------------------------------
# Stamped ages against the entry-by-entry service they replaced
# ----------------------------------------------------------------------
class _RefEntry:
    """One (peer, age) slot in a partial view."""

    __slots__ = ("node_id", "age")

    def __init__(self, node_id: int, age: int = 0):
        self.node_id = node_id
        self.age = age


class _RefCyclon:
    """The service as it was before ages became stamps — one
    ``_RefEntry`` per peer, aged one by one — kept verbatim as the oracle
    the stamped service is checked against."""

    __slots__ = ("_sim", "_net", "node_id", "_rng", "view_size",
                 "shuffle_length", "_entries", "_pending_sent", "view",
                 "shuffles_started", "_timer", "_dispatch")

    def __init__(self, sim: Simulator, net: Network, node_id: int,
                 rng: random.Random, view_size: int = 20, shuffle_length: int = 8,
                 period: float = 1.0):
        if shuffle_length > view_size:
            raise ValueError("shuffle_length cannot exceed view_size")
        self._sim = sim
        self._net = net
        self.node_id = node_id
        self._rng = rng
        self.view_size = view_size
        self.shuffle_length = shuffle_length
        self._entries: Dict[int, _RefEntry] = {}
        self._pending_sent: Dict[int, List[int]] = {}
        self.view = LocalView(node_id)
        self.shuffles_started = 0
        self._timer = PeriodicTimer(sim, period, self._shuffle)
        self._dispatch = {
            ShuffleRequest.kind_id: self._handle_request,
            ShuffleReply.kind_id: self._handle_reply,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def bootstrap(self, seeds: List[int]) -> None:
        """Fill the initial view from a list of known peers."""
        for seed in seeds:
            if seed != self.node_id and len(self._entries) < self.view_size:
                self._add_entry(_RefEntry(seed, 0))

    def start(self, phase: Optional[float] = None) -> None:
        self._timer.start(phase if phase is not None else self._rng.uniform(0, self._timer.period))

    def stop(self) -> None:
        self._timer.stop()

    # ------------------------------------------------------------------
    # view maintenance
    # ------------------------------------------------------------------
    def _add_entry(self, entry: _RefEntry) -> None:
        if entry.node_id == self.node_id:
            return
        existing = self._entries.get(entry.node_id)
        if existing is not None:
            if entry.age < existing.age:
                existing.age = entry.age
            return
        self._entries[entry.node_id] = entry
        self.view.add(entry.node_id)

    def _remove_peer(self, node_id: int) -> None:
        if node_id in self._entries:
            del self._entries[node_id]
            self.view.remove(node_id)

    def _oldest_peer(self) -> Optional[int]:
        if not self._entries:
            return None
        return max(sorted(self._entries), key=lambda n: self._entries[n].age)

    def neighbors(self) -> List[int]:
        return sorted(self._entries)

    # ------------------------------------------------------------------
    # shuffling
    # ------------------------------------------------------------------
    def _shuffle(self) -> None:
        for entry in self._entries.values():
            entry.age += 1
        target = self._oldest_peer()
        if target is None:
            return
        self.shuffles_started += 1
        # Select shuffle_length - 1 random other entries plus a fresh
        # entry for ourselves.
        others = [n for n in sorted(self._entries) if n != target]
        count = min(self.shuffle_length - 1, len(others))
        sample = self._rng.sample(others, count) if count > 0 else []
        payload_entries = [(self.node_id, 0)]
        payload_entries += [(n, self._entries[n].age) for n in sample]
        # The target entry is consumed by the shuffle: remove it now; it
        # may come back through future shuffles if still alive.
        self._remove_peer(target)
        self._pending_sent[target] = sample
        self._net.send(self.node_id, target,
                       ShuffleRequest(self._outgoing(payload_entries)))

    def on_shuffle_request(self, src: int, request: ShuffleRequest) -> None:
        others = sorted(self._entries)
        count = min(self.shuffle_length, len(others))
        sample = self._rng.sample(others, count) if count > 0 else []
        reply_entries = [(n, self._entries[n].age) for n in sample]
        self._net.send(self.node_id, src,
                       ShuffleReply(self._outgoing(reply_entries)))
        self._merge([_RefEntry(n, a) for n, a in request.entries], sent=sample)

    def _outgoing(self, entries: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
        """The (peer, age) entries this node actually advertises.

        An honest node advertises what it sampled; adversarial samplers
        (see :mod:`repro.adversary.attacks`) override this seam to
        fabricate entries without re-implementing the shuffle protocol.
        """
        return entries

    def on_shuffle_reply(self, src: int, reply: ShuffleReply) -> None:
        sent = self._pending_sent.pop(src, [])
        self._merge([_RefEntry(n, a) for n, a in reply.entries], sent=sent)

    def _merge(self, incoming: List[_RefEntry], sent: List[int]) -> None:
        """Cyclon merge: fill empty slots first, then overwrite the slots of
        entries we sent out, never duplicating and never pointing at self."""
        replaceable = [n for n in sent if n in self._entries]
        for entry in incoming:
            if entry.node_id == self.node_id or entry.node_id in self._entries:
                if entry.node_id in self._entries:
                    self._add_entry(entry)  # keeps the fresher age
                continue
            if len(self._entries) < self.view_size:
                self._add_entry(entry)
            elif replaceable:
                self._remove_peer(replaceable.pop())
                self._add_entry(entry)
            # else: view full and nothing replaceable -> drop the entry.

    # ------------------------------------------------------------------
    # network plumbing
    # ------------------------------------------------------------------
    def dispatch_table(self):
        """Kind-id dispatch for this service's two shuffle kinds.

        Merged into the hosting gossip node's endpoint table by the
        experiment runner (``GossipNode.register_handlers``), or captured
        directly when the service is attached as its own endpoint.
        """
        return self._dispatch

    def _handle_request(self, envelope) -> None:
        self.on_shuffle_request(envelope.src, envelope.payload)

    def _handle_reply(self, envelope) -> None:
        self.on_shuffle_reply(envelope.src, envelope.payload)

    def on_message(self, envelope) -> None:
        handler = self._dispatch.get(envelope.payload.kind_id)
        if handler is not None:
            handler(envelope)


class _Outbox:
    """A network stand-in recording every datagram a service sends."""

    def __init__(self):
        self.sent = []

    def send(self, src, dst, payload):
        self.sent.append((src, dst, payload.kind, list(payload.entries)))


def _observed(service, ages):
    return (service.neighbors(), ages, dict(service._pending_sent),
            sorted(service.view.members()), service._rng.getstate(),
            service.shuffles_started, service._net.sent)


_IDS = st.integers(0, 24)
_ENTRIES = st.lists(st.tuples(_IDS, st.integers(-2, 12)), max_size=10)
_OPS = st.lists(st.one_of(
    st.tuples(st.just("bootstrap"), st.lists(_IDS, max_size=25)),
    st.tuples(st.just("shuffle"), st.none()),
    st.tuples(st.just("request"), st.tuples(_IDS, _ENTRIES)),
    # A reply from a pending shuffle target (None) or from anybody.
    st.tuples(st.just("reply"), st.tuples(st.none() | _IDS, _ENTRIES)),
), max_size=40)


@settings(max_examples=300, deadline=None)
@given(owner=_IDS, view_size=st.integers(2, 20), data=st.data(), ops=_OPS)
def test_stamped_ages_match_the_entry_by_entry_service(owner, view_size,
                                                       data, ops):
    """Bootstrap lists with self and duplicates, shuffle ticks, and
    requests and replies carrying self, duplicate, unknown and fabricated
    entries: after every op both services hold the same neighbors and
    ages, sent the same payloads, await the same replies and left their
    RNGs in the same state."""
    shuffle_length = data.draw(st.integers(1, view_size))
    services = [cls(Simulator(), _Outbox(), owner, random.Random(7),
                    view_size=view_size, shuffle_length=shuffle_length)
                for cls in (_RefCyclon, PeerSamplingService)]
    ref, new = services
    for op, arg in ops:
        for service in services:
            if op == "bootstrap":
                service.bootstrap(arg)
            elif op == "shuffle":
                service._shuffle()
            elif op == "request":
                src, entries = arg
                service.on_shuffle_request(src, ShuffleRequest(list(entries)))
            else:
                src, entries = arg
                if src is None:
                    src = min(service._pending_sent, default=owner)
                service.on_shuffle_reply(src, ShuffleReply(list(entries)))
        ref_ages = {n: e.age for n, e in ref._entries.items()}
        new_ages = {n: new._epoch - s for n, s in new._stamps.items()}
        assert _observed(new, new_ages) == _observed(ref, ref_ages)
