"""Traffic accounting for the network fabric.

Counts datagrams and bytes sent, and datagrams delivered, per message
kind; the global totals are sums of those per-kind lists.  The per-kind counters
verify the paper's claim that control traffic (propose/request/
aggregation) is marginal next to serve payloads.  Per-node upload is not
counted here: each sender's :class:`~repro.net.bandwidth.UplinkQueue`
counts its own ``bytes_sent``, which is what the bandwidth-usage
breakdowns of Figure 4 read.

Per-kind counters are accumulated in flat lists indexed by the interned
``kind_id`` (see :func:`repro.net.message.register_kind`) — the send hot
path pays one list index instead of hashing a kind string per datagram.
The string names survive only at the reporting boundary: the
``bytes_by_kind`` / ``count_by_kind`` views translate ids back to display
names.

Both directions are counted by the code that moves the datagram, inline
on its hot path: ``Network.send`` per datagram, ``Network.send_many`` as
one accumulation per fan-out, and the router's ``deliver`` per delivered
datagram (the ``_recv_count_by_kind`` list), growing the lists through
:meth:`NetworkStats.kind_slot` only on an ``IndexError``.  Sharded runs
merge per-worker instances with :meth:`NetworkStats.merge_from`.

**Cross-shard wire counters.**  Sharded execution additionally accounts
what actually crosses a process boundary, so the cost of the window
barrier is visible instead of folded into wall time:

* ``wire_buffers`` — window buffers shipped, one pickle per (window,
  peer shard) that had rows to send;
* ``wire_envelopes`` — cross-shard envelopes shipped, counted as they
  are routed;
* ``wire_bytes`` — total pickled bytes of those buffers;
* ``wire_control_rows`` — churn crash announcements shipped as control
  rows in the window buffers, counted at the emitting (owner) shard.

All four are commutative sums and merge across shards like every other
counter; :meth:`NetworkStats.wire_summary` bundles them for reports.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from repro.net.message import kind_count, kind_name

#: The keys of :meth:`NetworkStats.wire_summary`, in report order.
WIRE_SUMMARY_KEYS = ("buffers", "envelopes", "bytes", "control_rows")


class NetworkStats:
    """Fabric-wide traffic counters."""

    __slots__ = ("lost", "dropped_queue", "dropped_dead", "_bytes_by_kind",
                 "_count_by_kind", "_recv_count_by_kind", "wire_buffers",
                 "wire_envelopes", "wire_bytes", "wire_control_rows")

    def __init__(self) -> None:
        self.lost = 0
        self.dropped_queue = 0
        self.dropped_dead = 0
        # Cross-shard wire accounting (zero outside sharded runs).
        self.wire_buffers = 0
        self.wire_envelopes = 0
        self.wire_bytes = 0
        self.wire_control_rows = 0
        #: Flat per-kind accumulators indexed by kind id.  Sized for the
        #: kinds registered so far; ``kind_slot`` grows them when a kind
        #: is registered after this stats object was created.
        self._bytes_by_kind: List[int] = [0] * kind_count()
        self._count_by_kind: List[int] = [0] * kind_count()
        self._recv_count_by_kind: List[int] = [0] * kind_count()

    # ------------------------------------------------------------------
    # per-kind accounting
    # ------------------------------------------------------------------
    def kind_slot(self, kind_id: int) -> int:
        """Ensure the per-kind lists cover ``kind_id``; returns it.

        The send and delivery fast paths index the lists directly and
        only call this on an ``IndexError`` (a kind registered after this
        stats object was built — possible in tests, never in a scenario
        run where all protocol modules import first).
        """
        grow = kind_id + 1 - len(self._bytes_by_kind)
        if grow > 0:
            self._bytes_by_kind.extend([0] * grow)
            self._count_by_kind.extend([0] * grow)
        grow = kind_id + 1 - len(self._recv_count_by_kind)
        if grow > 0:
            self._recv_count_by_kind.extend([0] * grow)
        return kind_id

    # ------------------------------------------------------------------
    # totals: sums of the per-kind lists
    # ------------------------------------------------------------------
    @property
    def sent(self) -> int:
        """Datagrams that reached the wire (lost ones included)."""
        return sum(self._count_by_kind)

    @property
    def bytes_sent(self) -> int:
        return sum(self._bytes_by_kind)

    @property
    def delivered(self) -> int:
        """Datagrams handed to a live destination."""
        return sum(self._recv_count_by_kind)

    @property
    def bytes_by_kind(self) -> Dict[str, int]:
        """Bytes sent per kind display name (kinds seen on the wire only).

        Returned as a fresh ``defaultdict(int)`` so lookups of kinds that
        never hit the wire read as 0, matching the historical mapping.
        """
        view: Dict[str, int] = defaultdict(int)
        for kind_id, count in enumerate(self._count_by_kind):
            if count:
                view[kind_name(kind_id)] = self._bytes_by_kind[kind_id]
        return view

    @property
    def count_by_kind(self) -> Dict[str, int]:
        """Datagrams sent per kind display name (kinds seen on the wire)."""
        view: Dict[str, int] = defaultdict(int)
        for kind_id, count in enumerate(self._count_by_kind):
            if count:
                view[kind_name(kind_id)] = count
        return view

    @property
    def received_count_by_kind(self) -> Dict[str, int]:
        """Datagrams *delivered* per kind display name."""
        view: Dict[str, int] = defaultdict(int)
        for kind_id, count in enumerate(self._recv_count_by_kind):
            if count:
                view[kind_name(kind_id)] = count
        return view

    def merge_from(self, other: "NetworkStats") -> None:
        """Fold another instance's counters into this one.

        Used by sharded execution: each worker accounts its own shard's
        traffic (sender-side counters accrue in the sender's shard,
        receiver-side in the receiver's), and the coordinator merges the
        per-worker instances.  All counters are sums, so merging is
        order-independent.
        """
        self.lost += other.lost
        self.dropped_queue += other.dropped_queue
        self.dropped_dead += other.dropped_dead
        self.wire_buffers += other.wire_buffers
        self.wire_envelopes += other.wire_envelopes
        self.wire_bytes += other.wire_bytes
        self.wire_control_rows += other.wire_control_rows
        top = max(len(other._bytes_by_kind), len(other._recv_count_by_kind))
        if top:
            self.kind_slot(top - 1)
        for kind_id, value in enumerate(other._bytes_by_kind):
            self._bytes_by_kind[kind_id] += value
        for kind_id, value in enumerate(other._count_by_kind):
            self._count_by_kind[kind_id] += value
        for kind_id, value in enumerate(other._recv_count_by_kind):
            self._recv_count_by_kind[kind_id] += value

    def wire_summary(self) -> Dict[str, int]:
        """The cross-shard wire counters as one report-ready mapping,
        keyed by :data:`WIRE_SUMMARY_KEYS` (key ``k`` is ``wire_k``)."""
        return {key: getattr(self, f"wire_{key}")
                for key in WIRE_SUMMARY_KEYS}

    @property
    def wire_payload_bytes(self) -> int:
        """Read-only alias of ``wire_bytes`` (as is
        ``wire_payload_bytes_before``): ``ledger/workloads.py::net_counts``
        reads both names.  The next ``[benchmark]`` PR retargets the
        ledger and deletes them."""
        return self.wire_bytes

    wire_payload_bytes_before = wire_payload_bytes

    def delivery_ratio(self) -> float:
        """Fraction of sent datagrams that were delivered."""
        if self.sent == 0:
            return 1.0
        return self.delivered / self.sent
