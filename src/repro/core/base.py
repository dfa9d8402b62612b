"""The three-phase gossip dissemination node (Algorithm 1 skeleton).

``GossipNode`` implements the full push-request-push state machine with
infect-and-die proposal semantics; the fanout policy is pluggable, which
is the *only* difference between standard gossip
(:class:`~repro.core.standard.StandardGossipNode`) and HEAP
(:class:`~repro.core.heap.HeapGossipNode`) — exactly the paper's framing
of HEAP as "standard gossip plus fanout adaptation".

Message handling mirrors the pseudo-code:

* phase 1 — every ``gossip_period`` the node proposes the ids delivered
  since the previous round to ``getFanout()`` uniformly random peers,
  then forgets them (infect-and-die: each id is proposed exactly once);
* phase 2 — a [Propose] receiver requests the ids it has neither
  delivered nor already requested, and arms a retransmission timer;
* phase 3 — a [Request] receiver serves the payloads it holds; a [Serve]
  receiver delivers new packets, queueing their ids for its next round.

Delivery plumbing: the node keeps a **dispatch table** mapping interned
payload kind-ids to bound envelope handlers.  The network captures the
table at attach time and hands each delivered envelope straight to the
matching handler; co-hosted protocols (peer sampling, auditing, ...)
join the same endpoint through :meth:`register_handler` /
:meth:`register_handlers` instead of the old string-keyed
``extra_handlers`` dict.  Proposal rounds fan one [Propose] payload out
through :meth:`Network.send_many` — one wire-size computation and one
batched stats accumulation for the whole round.  [Request] and [Serve]
payloads are built by slot stores, as ``Network.send`` builds envelopes:
the same ``ids`` / ``packets`` and wire size as their constructors,
without an ``__init__`` frame (or, for [Serve], a generator) per message.
"""

from __future__ import annotations

import random
from operator import attrgetter
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple, Union

from repro.core.config import GossipConfig
from repro.core.messages import (HEADER_BYTES, ID_BYTES,
                                 SERVE_PACKET_OVERHEAD, Propose, Request,
                                 Serve)
from repro.core.retransmission import RetransmissionManager
from repro.membership.selector import UniformSelector
from repro.membership.view import LocalView
from repro.net.message import Envelope, intern_kind, kind_name
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer
from repro.streaming.packets import StreamPacket
from repro.streaming.receiver import ReceiverLog

_new_message = object.__new__
_size_bytes = attrgetter("size_bytes")


class GossipNode:
    """One participant of the gossip dissemination."""

    __slots__ = ("_sim", "_net", "node_id", "view", "config", "_rng",
                 "capability_bps", "selector", "log", "_store", "_to_propose",
                 "_requested", "_gossip_timer", "_retransmission", "_policy",
                 "on_deliver", "on_request_sent", "on_serve_received",
                 "_dispatch", "proposes_sent", "requests_sent", "serves_sent",
                 "packets_served")

    def __init__(self, sim: Simulator, net: Network, node_id: int,
                 view: LocalView, config: GossipConfig, rng: random.Random,
                 capability_bps: float):
        config.validate()
        self._sim = sim
        self._net = net
        self.node_id = node_id
        self.view = view
        self.config = config
        self._rng = rng
        #: The node's advertised upload capability (HEAP's b_p); mutable so
        #: experiments can model capability changes over time.
        self.capability_bps = capability_bps
        #: Gossip-target selector; uniform by default (Algorithm 1 line 23),
        #: replaceable e.g. with a capability-biased selector at the source
        #: (the paper's Section 5 extension).
        self.selector = UniformSelector(rng)

        self.log = ReceiverLog(node_id)
        self._store: Dict[int, StreamPacket] = {}
        self._to_propose: List[int] = []
        self._requested: Set[int] = set()

        self._gossip_timer = PeriodicTimer(sim, config.gossip_period, self._on_gossip_tick)
        self._retransmission: Optional[RetransmissionManager] = None
        if config.retransmission:
            self._retransmission = RetransmissionManager(
                sim,
                period=config.retransmission_period,
                max_retries=config.retransmission_retries,
                is_delivered=self._store.__contains__,
                resend=self._send_request,
                release=self._requested.difference_update,
            )

        #: Observer called as on_deliver(packet, time) for every delivery.
        self.on_deliver: Optional[Callable[[StreamPacket, float], None]] = None
        #: Audit hooks (see repro.freeriders): number of ids requested
        #: from a peer, and number of packets a peer served us.
        self.on_request_sent: Optional[Callable[[int, int], None]] = None
        self.on_serve_received: Optional[Callable[[int, int], None]] = None
        #: Kind-id dispatch table: the network captures this (live) at
        #: attach time and routes every delivered envelope through it.
        self._dispatch: Dict[int, Callable[[Envelope], None]] = {
            Propose.kind_id: self._handle_propose,
            Request.kind_id: self._handle_request,
            Serve.kind_id: self._handle_serve,
        }

        # Counters (diagnostics and tests).
        self.proposes_sent = 0
        self.requests_sent = 0
        self.serves_sent = 0
        self.packets_served = 0

    # ------------------------------------------------------------------
    # fanout policy hook — subclasses must provide partners_this_round()
    # ------------------------------------------------------------------
    def get_fanout(self) -> int:
        """Number of partners for the current round (Algorithm 1, line 27)."""
        raise NotImplementedError

    def current_fanout(self) -> float:
        """The fractional fanout value before per-round quantization."""
        raise NotImplementedError

    def set_fanout_policy(self, policy) -> None:
        """Replace the fanout policy (e.g. pin the source to a fixed one)."""
        self._policy = policy

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, phase: Optional[float] = None) -> None:
        """Begin gossiping.  ``phase`` overrides the randomized first tick."""
        if phase is None and self.config.randomize_phase:
            phase = self._rng.uniform(0, self.config.gossip_period)
        self._gossip_timer.start(phase)

    def stop(self) -> None:
        self._gossip_timer.stop()

    @property
    def running(self) -> bool:
        return self._gossip_timer.running

    # ------------------------------------------------------------------
    # application-facing API
    # ------------------------------------------------------------------
    def publish(self, packet: StreamPacket) -> None:
        """Source entry point (Algorithm 1, `publish`): deliver locally and
        gossip the fresh id immediately."""
        self._deliver(packet)
        self._to_propose.remove(packet.packet_id)
        self._gossip([packet.packet_id])

    def has_packet(self, packet_id: int) -> bool:
        return packet_id in self._store

    def delivered_count(self) -> int:
        return len(self.log)

    # ------------------------------------------------------------------
    # phase 1: propose
    # ------------------------------------------------------------------
    def _on_gossip_tick(self) -> None:
        if not self._to_propose:
            return
        ids = self._to_propose
        self._to_propose = []  # infect and die
        self._gossip(ids)

    def _gossip(self, ids: List[int]) -> None:
        fanout = self.get_fanout()
        if fanout <= 0:
            return
        partners = self.selector.select(self.view, fanout)
        if not partners:
            return
        self._net.send_many(self.node_id, partners, Propose(ids))
        self.proposes_sent += len(partners)

    # ------------------------------------------------------------------
    # phase 2: request
    # ------------------------------------------------------------------
    def _on_propose(self, src: int, proposal: Propose) -> None:
        requested = self._requested
        wanted = [packet_id for packet_id in proposal.ids
                  if packet_id not in requested]
        if not wanted:
            return
        requested.update(wanted)
        sent = self._send_request(src, wanted)
        if self._retransmission is not None:
            self._retransmission.track(src, sent)

    def _send_request(self, peer: int, ids: List[int]) -> Tuple[int, ...]:
        """Send a [Request] for ``ids``; returns its immutable ids tuple."""
        request = _new_message(Request)
        request.ids = ids = tuple(ids)
        request._wire_size = HEADER_BYTES + ID_BYTES * len(ids)
        self._net.send(self.node_id, peer, request)
        self.requests_sent += 1
        if self.on_request_sent is not None:
            self.on_request_sent(peer, len(ids))
        return ids

    # ------------------------------------------------------------------
    # phase 3: serve
    # ------------------------------------------------------------------
    def _on_request(self, src: int, request: Request) -> None:
        store = self._store
        packets = [store[packet_id] for packet_id in request.ids
                   if packet_id in store]
        if not packets:
            return
        count = len(packets)
        serve = _new_message(Serve)
        serve.packets = packets
        # Integer sizes, so this equals the constructor's per-packet sum.
        serve._wire_size = (HEADER_BYTES + sum(map(_size_bytes, packets))
                            + SERVE_PACKET_OVERHEAD * count)
        self._net.send(self.node_id, src, serve)
        self.serves_sent += 1
        self.packets_served += count

    def _on_serve(self, src: int, serve: Serve) -> None:
        packets = serve.packets
        if self.on_serve_received is not None:
            self.on_serve_received(src, len(packets))
        store = self._store
        for packet in packets:
            if packet.packet_id not in store:
                self._deliver(packet)

    def _deliver(self, packet: StreamPacket) -> None:
        now = self._sim._now
        self._store[packet.packet_id] = packet
        self.log.record(packet.packet_id, now)
        self._to_propose.append(packet.packet_id)
        # A delivered id must never be requested again.
        self._requested.add(packet.packet_id)
        if self.on_deliver is not None:
            self.on_deliver(packet, now)

    # ------------------------------------------------------------------
    # network plumbing
    # ------------------------------------------------------------------
    def _handle_propose(self, envelope: Envelope) -> None:
        self._on_propose(envelope.src, envelope.payload)

    def _handle_request(self, envelope: Envelope) -> None:
        self._on_request(envelope.src, envelope.payload)

    def _handle_serve(self, envelope: Envelope) -> None:
        self._on_serve(envelope.src, envelope.payload)

    def dispatch_table(self) -> Dict[int, Callable[[Envelope], None]]:
        """The live kind-id dispatch table (captured by ``Network.attach``)."""
        return self._dispatch

    def register_handler(self, kind: Union[str, int],
                         handler: Callable[[Envelope], None]) -> None:
        """Route a payload kind (name or kind-id) to a co-hosted protocol.

        Raises on a duplicate registration — two protocols claiming one
        kind on the same endpoint is always a wiring bug.  A string name
        is resolved against the global kind registry and raises
        :class:`KeyError` for a kind nobody registered (minting one
        here would skew kind-id tables across fork/spawn shard
        workers): prefer the payload class's ``kind_id`` for kinds a
        protocol module owns.
        """
        kind_id = intern_kind(kind) if isinstance(kind, str) else kind
        if kind_id in self._dispatch:
            raise ValueError(f"node {self.node_id}: handler for kind "
                             f"{kind_name(kind_id)!r} already registered")
        self._dispatch[kind_id] = handler

    def register_handlers(
            self, table: Mapping[int, Callable[[Envelope], None]]) -> None:
        """Merge another protocol's dispatch table into this endpoint's."""
        for kind_id, handler in table.items():
            self.register_handler(kind_id, handler)

    def on_message(self, envelope: Envelope) -> None:
        """Fallback delivery entry point (direct callers, detached use).

        Attached nodes are normally dispatched straight from the network's
        captured table; this applies the same table, silently ignoring
        unregistered kinds (matching the old extra-handler behaviour).
        """
        handler = self._dispatch.get(envelope.payload.kind_id)
        if handler is not None:
            handler(envelope)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    @property
    def retransmission_stats(self) -> Optional[RetransmissionManager]:
        return self._retransmission
