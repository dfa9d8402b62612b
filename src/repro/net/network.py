"""The network fabric wiring endpoints together.

Send pipeline, applied in order for every datagram:

1. **uplink serialization** through the sender's :class:`UplinkQueue`
   (this is where congestion delay builds up at overloaded nodes);
2. **loss** sampling (models UDP drops);
3. **propagation latency** sampling;
4. scheduled **delivery** at arrival time, if both ends are still alive.

Crash semantics: a node that crashes at time *t* stops receiving
immediately and any datagram that had not finished serializing through
its uplink by *t* is lost (it was still sitting in the application-level
queue of the dead process).  Datagrams already on the wire are delivered.

Hot path notes: gossip is intrinsically multicast — every proposal round,
peer-sampling shuffle and audit fan one payload out to k peers — so the
fabric exposes :meth:`Network.send_many` next to the unicast
:meth:`Network.send`.  ``send_many`` computes the wire size once, walks
the destinations in caller order (per-destination loss and latency draws
consume the RNG streams exactly as an equivalent ``send`` loop would, so
seeded traces are bit-identical), and folds the sender-side stats into
single accumulations instead of k list updates.  Both build their
envelopes without running ``Envelope.__init__`` (``object.__new__`` plus
one store per slot, the idiom of the simulator's event handles); every
other caller uses ``Envelope(...)``.

Delivery routes through a **per-endpoint dispatch table** captured at
:meth:`attach` time: an endpoint that exposes ``dispatch_table()`` (a
live mapping of interned payload ``kind_id`` to an envelope handler) gets
its datagrams handed straight to the matching handler — one integer dict
lookup, no per-message string comparison; kinds missing from the table,
and endpoints without a table, fall back to ``on_message``.

Delivery itself is delegated to a pluggable :class:`~repro.net.router.Router`
(default: :class:`~repro.net.router.InprocRouter`): the send pipeline
hands every surviving datagram to ``router.route``, which posts the
envelope itself on the simulator's event queue at its arrival time;
when the engine fires it, the envelope hands itself to the router's
``deliver``, which applies the crash checks, receive-side stats and
dispatch — one event, one ``deliver`` per datagram.  The
sharded execution engine (:mod:`repro.net.shard`) swaps in a router that
forwards remote-shard destinations across process boundaries as one
pickle of row tuples per (window, peer shard).  ``send_many`` hands the
*same* payload object to every per-destination envelope, so pickle's
memo writes a multicast payload once per blob, however many of that
shard's nodes it reaches.

Every datagram gets a fresh :class:`~repro.net.message.Envelope`;
endpoints and observers may keep the envelopes they are handed.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Protocol

from repro.net.bandwidth import UplinkQueue
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.loss import LossModel, NoLoss
from repro.net.message import UDP_IP_HEADER_BYTES, Envelope, Payload
from repro.net.router import InprocRouter, Router
from repro.net.stats import NetworkStats
from repro.sim.engine import Simulator

#: The send paths build envelopes without an ``__init__`` frame.
_new_envelope = object.__new__


class Endpoint(Protocol):
    """Anything attachable to the network: must handle delivered envelopes.

    Endpoints may additionally expose ``dispatch_table()`` returning a
    *live* ``{kind_id: handler(envelope)}`` mapping; the network captures
    it at attach time and routes matching kinds directly (later mutations
    of the same mapping are honoured).  ``on_message`` remains the
    fallback for kinds absent from the table.
    """

    def on_message(self, envelope: Envelope) -> None:
        ...


class Network:
    """Best-effort datagram fabric with throttled uplinks."""

    __slots__ = ("_sim", "latency", "loss", "stats", "_endpoints",
                 "_uplinks", "_crash_time", "_delivery", "on_deliver",
                 "router", "_route", "_deliver")

    def __init__(self, sim: Simulator, latency: Optional[LatencyModel] = None,
                 loss: Optional[LossModel] = None,
                 router: Optional[Router] = None):
        self._sim = sim
        self.latency = latency if latency is not None else ConstantLatency(0.05)
        self.loss = loss if loss is not None else NoLoss()
        self.stats = NetworkStats()
        self._endpoints: Dict[int, Endpoint] = {}
        self._uplinks: Dict[int, UplinkQueue] = {}
        self._crash_time: Dict[int, float] = {}
        #: node_id -> (endpoint, dispatch table or None, uplink):
        #: everything the send/delivery paths need behind one dict lookup.
        self._delivery: Dict[int, tuple] = {}
        #: Optional observer invoked for every delivered envelope.
        self.on_deliver: Optional[Callable[[Envelope], None]] = None
        #: The delivery router.  Bound here, aliased for the hot path.
        self.router: Router = router if router is not None else InprocRouter()
        self.router.bind(self)
        self._route = self.router.route
        # What an arrival entry calls: ``deliver``, under the name the
        # ledger's tracer wraps (see the alias in InprocRouter).
        self._deliver = self.router.deliver_bucket

    # ------------------------------------------------------------------
    # membership of the fabric
    # ------------------------------------------------------------------
    def attach(self, node_id: int, endpoint: Endpoint, upload_capacity_bps: float,
               max_queue_delay: Optional[float] = None) -> UplinkQueue:
        """Register ``endpoint`` under ``node_id`` with the given uplink.

        If the endpoint exposes ``dispatch_table()``, the returned mapping
        is captured *by reference* — handlers registered on it after
        attach (co-hosted protocols wired up later) are dispatched too.
        """
        if node_id in self._endpoints:
            raise ValueError(f"node {node_id} already attached")
        self._endpoints[node_id] = endpoint
        uplink = UplinkQueue(upload_capacity_bps, max_delay=max_queue_delay)
        self._uplinks[node_id] = uplink
        table_fn = getattr(endpoint, "dispatch_table", None)
        table = table_fn() if table_fn is not None else None
        self._delivery[node_id] = (endpoint, table, uplink)
        return uplink

    def detach(self, node_id: int) -> None:
        """Remove a node entirely (used when a node leaves gracefully)."""
        self._endpoints.pop(node_id, None)
        self._uplinks.pop(node_id, None)
        self._delivery.pop(node_id, None)

    def crash(self, node_id: int) -> None:
        """Kill a node: it stops sending and receiving at the current time."""
        if node_id in self._endpoints and node_id not in self._crash_time:
            self._crash_time[node_id] = self._sim.now

    def is_alive(self, node_id: int) -> bool:
        return node_id in self._endpoints and node_id not in self._crash_time

    def uplink(self, node_id: int) -> UplinkQueue:
        return self._uplinks[node_id]

    @property
    def node_ids(self):
        return self._endpoints.keys()

    # ------------------------------------------------------------------
    # datagram pipeline
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, payload: Payload) -> Optional[Envelope]:
        """Send one datagram.  Returns the envelope, or None if it was not
        routed: a dead or unattached sender (nothing counted), a queue
        cap (counted in ``dropped_queue``), or loss (already charged to
        the sender's uplink and to ``sent``, then counted in ``lost``)."""
        entry = self._delivery.get(src)
        if entry is None or (self._crash_time and src in self._crash_time):
            return None
        now = self._sim._now
        size = payload.wire_size() + UDP_IP_HEADER_BYTES
        exit_time = entry[2].enqueue(now, size)
        stats = self.stats
        if exit_time is None:
            stats.dropped_queue += 1
            return None
        kind_id = payload.kind_id
        try:
            stats._bytes_by_kind[kind_id] += size
        except IndexError:
            stats._bytes_by_kind[stats.kind_slot(kind_id)] += size
        stats._count_by_kind[kind_id] += 1
        loss = self.loss
        if loss.active and loss.is_lost(src, dst):
            stats.lost += 1
            return None
        envelope = _new_envelope(Envelope)
        envelope.src = src
        envelope.dst = dst
        envelope.payload = payload
        envelope.size_bytes = size
        envelope.send_time = now
        envelope.arrival_time = exit_time + self.latency.sample(src, dst)
        envelope._exit_time = exit_time
        self._route(envelope)
        return envelope

    def send_many(self, src: int, dsts: Iterable[int], payload: Payload) -> int:
        """Multicast ``payload`` from ``src`` to every destination in
        ``dsts`` (walked in caller order).  Returns the number of
        datagrams that reached the wire.

        Semantically identical to calling :meth:`send` once per
        destination — per-destination queue/loss/latency behaviour and
        RNG draws match that loop bit-for-bit — but the wire size is
        computed once and the sender-side stats land as single batched
        accumulations instead of per-destination list updates.
        """
        entry = self._delivery.get(src)
        if entry is None or (self._crash_time and src in self._crash_time):
            return 0
        now = self._sim._now
        size = payload.wire_size() + UDP_IP_HEADER_BYTES
        enqueue = entry[2].enqueue
        loss = self.loss
        loss_active = loss.active
        is_lost = loss.is_lost
        latency_sample = self.latency.sample
        route = self._route
        wired = 0
        lost = 0
        dropped = 0
        for dst in dsts:
            exit_time = enqueue(now, size)
            if exit_time is None:
                # Queue cap hit: this destination's datagram never reaches
                # the wire (no loss/latency draw, exactly like send()).
                dropped += 1
                continue
            wired += 1
            if loss_active and is_lost(src, dst):
                lost += 1
                continue
            envelope = _new_envelope(Envelope)
            envelope.src = src
            envelope.dst = dst
            envelope.payload = payload
            envelope.size_bytes = size
            envelope.send_time = now
            envelope.arrival_time = exit_time + latency_sample(src, dst)
            envelope._exit_time = exit_time
            route(envelope)
        stats = self.stats
        if dropped:
            stats.dropped_queue += dropped
        if wired:
            kind_id = payload.kind_id
            try:
                stats._bytes_by_kind[kind_id] += size * wired
            except IndexError:
                stats._bytes_by_kind[stats.kind_slot(kind_id)] += size * wired
            stats._count_by_kind[kind_id] += wired
        if lost:
            stats.lost += lost
        return wired
