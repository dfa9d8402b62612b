"""The delivery routing layer of the network fabric.

A :class:`Router` owns everything that happens between "the datagram
left the wire pipeline" and "an endpoint handler ran":

* **arrival scheduling** — ``route`` pushes ``(arrival time, seq,
  deliver, envelope)`` onto the simulator's heap itself, so the engine
  calls ``deliver(envelope)`` when the time comes: one call per arrival,
  no closure, no handle.  The engine's (time, enqueue order) guarantee
  is the delivery order, ties included;
* **delivery semantics** — one ``deliver`` call per datagram: crash
  checks, per-kind receive counters, the ``on_deliver`` observer, and
  kind-id dispatch-table lookup.

Two implementations ship:

* :class:`InprocRouter` (the default) delivers within the owning
  process.
* :class:`~repro.net.shard.ShardRouter` partitions the node population
  across shards: envelopes for locally-owned destinations take exactly
  the in-process path, envelopes for remote destinations become
  kind-id-tagged row tuples, pickled once per peer shard and exchanged
  at conservative time-window boundaries (see :mod:`repro.net.shard`).

The split point matters: senders (``Network.send``/``send_many``) decide
*whether and when* a datagram arrives — uplink serialization, loss,
latency all draw on the sender's side — so a router never consumes RNG.
Routing is therefore free to move a delivery across process boundaries
without perturbing any random stream, which is what makes sharded
execution deterministic.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.net.message import Envelope
from repro.sim.engine import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network


@runtime_checkable
class Router(Protocol):
    """What the network fabric requires of a delivery router."""

    def bind(self, net: "Network") -> None:
        """Attach to a fabric.  Called once from ``Network.__init__``."""
        ...

    def route(self, envelope: Envelope) -> None:
        """Accept one datagram that survived the send pipeline.

        The router must arrange for the envelope to be delivered at
        ``envelope.arrival_time`` (or dropped, if the destination is
        dead/unknown by then).
        """
        ...

    def deliver(self, envelope: Envelope) -> None:
        """Deliver one envelope whose arrival time has come."""
        ...


class InprocRouter:
    """Default router: in-process delivery, one event per datagram."""

    __slots__ = ("_net", "_sim")

    def __init__(self) -> None:
        self._net: "Network" = None  # type: ignore[assignment]
        self._sim = None

    # ------------------------------------------------------------------
    # Router protocol
    # ------------------------------------------------------------------
    def bind(self, net: "Network") -> None:
        self._net = net
        self._sim = net._sim

    def route(self, envelope: Envelope) -> None:
        """Queue the fabric's ``deliver(envelope)`` at its arrival time.

        What ``Simulator.post_at`` does, refusals of a past or NaN time
        included, with the envelope as the entry's argument.
        """
        sim = self._sim
        time = envelope.arrival_time
        if not time >= sim._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f}, already at t={sim._now:.6f}")
        seq = sim._seq + 1
        sim._seq = seq
        _heappush(sim._heap, (time, seq, self._net._deliver, envelope))

    def deliver(self, envelope: Envelope) -> None:
        """Hand ``envelope`` to its destination, or drop it if either
        end died in the meantime."""
        net = self._net
        stats = net.stats
        crash_time = net._crash_time
        if crash_time:
            src_crash = crash_time.get(envelope.src)
            if src_crash is not None and envelope._exit_time > src_crash:
                # Still queued in the sender's dead process.
                stats.dropped_dead += 1
                return
            if envelope.dst in crash_time:
                stats.dropped_dead += 1
                return
        entry = net._delivery.get(envelope.dst)
        if entry is None:
            stats.dropped_dead += 1
            return
        endpoint, table, _ = entry
        kind_id = envelope.payload.kind_id
        try:
            stats._recv_count_by_kind[kind_id] += 1
        except IndexError:
            stats._recv_count_by_kind[stats.kind_slot(kind_id)] += 1
        on_deliver = net.on_deliver
        if on_deliver is not None:
            on_deliver(envelope)
        if table is not None:
            handler = table.get(kind_id)
            if handler is not None:
                handler(envelope)
            else:
                endpoint.on_message(envelope)
        else:
            endpoint.on_message(envelope)

    #: ``ledger/trace.py`` and ``ledger/test_ledger.py`` resolve the
    #: delivery entry point under this name, so the fabric binds the
    #: ``deliver`` that ``route`` queues through it (a traced run then
    #: attributes ``net.router.deliver_self_s``).  Goes once the ledger is
    #: retargeted to ``deliver`` (next ``[benchmark]`` PR).
    deliver_bucket = deliver
