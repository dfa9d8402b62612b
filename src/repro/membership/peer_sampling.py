"""Cyclon-style gossip peer-sampling service.

The paper's protocols assume a uniform random peer sampler; on PlanetLab
this came from full membership knowledge.  This module provides the
decentralized alternative: nodes keep a small partial view of (peer, age)
entries and periodically *shuffle* a slice of it with the oldest peer in
the view, which is known to approximate uniform sampling and to flush
dead entries quickly (Voulgaris, Gavidia, van Steen, JNSM 2005).

It is wired into experiments through the same :class:`LocalView`
interface as the directory, so the dissemination protocols do not care
which membership substrate is underneath.

**Ages are stamps.**  Cyclon ages every entry by one per shuffle.  A
view here is one dict ``peer -> stamp`` and an ``_epoch`` counter, with
``age == _epoch - stamp``, so a shuffle ages the whole view with one
increment, and a merge stores a payload's ``(peer, age)`` as one int
instead of building an entry object.  The oldest peer has the smallest
stamp, and "keeps the fresher age" keeps the larger stamp.  ``min`` over
the ascending ids picks the first smallest stamp, the lowest id among
the oldest, so the sort that orders the shuffle sample is the only one
an exchange makes.  Ages on the wire are the same ints as before.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.membership.view import LocalView
from repro.net.message import register_kind
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer

#: Bytes per serialized view entry: node id (8) + age (4).
_ENTRY_BYTES = 12
#: Fixed protocol header bytes inside the datagram payload.
_HEADER_BYTES = 8


class ShuffleRequest:
    kind = "shuffle-req"
    kind_id = register_kind("shuffle-req")
    __slots__ = ("entries",)

    def __init__(self, entries: List[Tuple[int, int]]):
        self.entries = entries

    def wire_size(self) -> int:
        return _HEADER_BYTES + _ENTRY_BYTES * len(self.entries)


class ShuffleReply:
    kind = "shuffle-rep"
    kind_id = register_kind("shuffle-rep")
    __slots__ = ("entries",)

    def __init__(self, entries: List[Tuple[int, int]]):
        self.entries = entries

    def wire_size(self) -> int:
        return _HEADER_BYTES + _ENTRY_BYTES * len(self.entries)


class PeerSamplingService:
    """One node's Cyclon shuffling agent.

    Exposes its current neighbor set as a :class:`LocalView` (the ``view``
    attribute) that tracks the partial view's membership, so dissemination
    protocols can sample from it exactly as they would from the directory.
    """

    __slots__ = ("_sim", "_net", "node_id", "_rng", "view_size",
                 "shuffle_length", "_stamps", "_epoch", "_pending_sent",
                 "view", "shuffles_started", "_timer", "_dispatch")

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
        #: peer -> ``_epoch`` minus the peer's age (see module docstring).
        self._stamps: Dict[int, int] = {}
        self._epoch = 0
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
        """Fill the initial view from a list of known peers (age 0)."""
        stamps = self._stamps
        epoch = self._epoch
        for seed in seeds:
            if seed != self.node_id and len(stamps) < self.view_size:
                known = stamps.get(seed)
                if known is None:
                    stamps[seed] = epoch
                    self.view.add(seed)
                elif known < epoch:
                    stamps[seed] = epoch

    def start(self, phase: Optional[float] = None) -> None:
        self._timer.start(phase if phase is not None else self._rng.uniform(0, self._timer.period))

    def stop(self) -> None:
        self._timer.stop()

    # ------------------------------------------------------------------
    # view maintenance
    # ------------------------------------------------------------------
    def neighbors(self) -> List[int]:
        return sorted(self._stamps)

    # ------------------------------------------------------------------
    # shuffling
    # ------------------------------------------------------------------
    def _shuffle(self) -> None:
        self._epoch = epoch = self._epoch + 1
        stamps = self._stamps
        if not stamps:
            return
        # The oldest peer, lowest id among equals, is the target; the
        # others stay in ascending order for the sample.
        others = sorted(stamps)
        target = min(others, key=stamps.__getitem__)
        others.remove(target)
        self.shuffles_started += 1
        # Select shuffle_length - 1 random other entries plus a fresh
        # entry for ourselves.
        count = min(self.shuffle_length - 1, len(others))
        sample = self._rng.sample(others, count) if count > 0 else []
        payload_entries = [(self.node_id, 0)]
        payload_entries += [(n, epoch - stamps[n]) for n in sample]
        # The target entry is consumed by the shuffle: remove it now; it
        # may come back through future shuffles if still alive.
        del stamps[target]
        self.view.remove(target)
        self._pending_sent[target] = sample
        self._net.send(self.node_id, target,
                       ShuffleRequest(self._outgoing(payload_entries)))

    def on_shuffle_request(self, src: int, request: ShuffleRequest) -> None:
        stamps = self._stamps
        others = sorted(stamps)
        count = min(self.shuffle_length, len(others))
        sample = self._rng.sample(others, count) if count > 0 else []
        epoch = self._epoch
        reply_entries = [(n, epoch - stamps[n]) for n in sample]
        self._net.send(self.node_id, src,
                       ShuffleReply(self._outgoing(reply_entries)))
        self._merge(request.entries, sent=sample)

    def _outgoing(self, entries: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
        """The (peer, age) entries this node actually advertises.

        An honest node advertises what it sampled; adversarial samplers
        (see :mod:`repro.adversary.attacks`) override this seam to
        fabricate entries without re-implementing the shuffle protocol.
        """
        return entries

    def on_shuffle_reply(self, src: int, reply: ShuffleReply) -> None:
        sent = self._pending_sent.pop(src, [])
        self._merge(reply.entries, sent=sent)

    def _merge(self, incoming: List[Tuple[int, int]], sent: List[int]) -> None:
        """Cyclon merge: fill empty slots first, then overwrite the slots of
        entries we sent out, never duplicating and never pointing at self.
        A peer already in the view keeps the fresher age."""
        stamps = self._stamps
        epoch = self._epoch
        view = self.view
        replaceable = [n for n in sent if n in stamps]
        for node, age in incoming:
            if node == self.node_id:
                continue
            stamp = epoch - age
            known = stamps.get(node)
            if known is not None:
                if stamp > known:
                    stamps[node] = stamp
                continue
            if len(stamps) >= self.view_size:
                if not replaceable:
                    continue  # view full and nothing replaceable: drop it
                dropped = replaceable.pop()
                del stamps[dropped]
                view.remove(dropped)
            stamps[node] = stamp
            view.add(node)
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
