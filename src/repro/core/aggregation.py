"""Gossip-based capability aggregation (Algorithm 2, right column).

Every ``aggregation_period`` a node sends the 10 freshest
(node, capability, timestamp) samples it knows — always including its own,
refreshed — to ``aggregation_fanout`` random peers.  Receivers merge by
keeping the freshest sample per node and estimate the system-wide average
upload capability as the mean over their (TTL-bounded) sample table.

The estimate feeds HEAP's fanout adaptation; its accuracy/latency
trade-off is explored by ``benchmarks/bench_ablation_aggregation.py``.

The sample table is one dict, ``node -> (node, capability, timestamp)``,
whose values are the very tuples the messages carry: an accepted sample
is stored as the object that arrived, a round's own refresh makes the one
new tuple, and ``freshest`` hands the stored tuples on unchanged.  So a
merge is one store, and a round sorts and slices the table without
building a sample — one tuple can sit in many nodes' tables and many
messages at once, which is safe because tuples are immutable.

A round runs every 0.2 s at every node, so it carries no call it can do
without: it sorts inline (what :meth:`CapabilityAggregator.freshest`
returns), builds its message by slot stores as ``Network.send*`` build
envelopes, and hands a one-partner round — the paper's
``aggregation_fanout = 1`` — to ``Network.send``, which ``send_many``
equals for one destination.  The host registers
:meth:`CapabilityAggregator.on_envelope` for the aggregation kind, so a
delivery reaches the merge straight from the dispatch table.
"""

from __future__ import annotations

import random
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.membership.view import LocalView
from repro.net.message import Envelope, register_kind
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer

#: Fixed header bytes inside an aggregation datagram payload.
_HEADER_BYTES = 8
#: Bytes per serialized sample (node id, capability, age).
_SAMPLE_BYTES = 12

#: One sample: (node_id, capability_bps, sample_timestamp).
Sample = Tuple[int, float, float]
_capability_of = itemgetter(1)
_timestamp_of = itemgetter(2)
#: A round builds its message without an ``__init__`` frame.
_new_message = object.__new__


class AggregationMessage:
    """[Aggregation, fresh] — a batch of capability samples."""

    kind = "aggregation"
    kind_id = register_kind("aggregation")
    __slots__ = ("samples", "_wire_size")

    def __init__(self, samples: List[Sample]):
        #: list of (node_id, capability_bps, sample_timestamp)
        self.samples = samples
        self._wire_size = _HEADER_BYTES + _SAMPLE_BYTES * len(samples)

    def wire_size(self) -> int:
        return self._wire_size

    def __repr__(self) -> str:  # pragma: no cover
        return f"AggregationMessage({len(self.samples)} samples)"


class CapabilityAggregator:
    """One node's capability-aggregation agent."""

    __slots__ = ("_sim", "_net", "node_id", "_capability", "_view", "_rng",
                 "fresh_count", "fanout", "sample_ttl", "_table", "_oldest_ts",
                 "_timer")

    def __init__(self, sim: Simulator, net: Network, node_id: int,
                 capability: Callable[[], float], view: LocalView,
                 rng: random.Random, period: float = 0.2,
                 fresh_count: int = 10, fanout: int = 7,
                 sample_ttl: float = 10.0):
        self._sim = sim
        self._net = net
        self.node_id = node_id
        self._capability = capability
        self._view = view
        self._rng = rng
        self.fresh_count = fresh_count
        self.fanout = fanout
        self.sample_ttl = sample_ttl
        #: node_id -> that node's freshest known sample, as the tuple
        #: that carried it.
        self._table: Dict[int, Sample] = {}
        #: Lower bound on the oldest foreign sample timestamp; lets
        #: _evict_stale skip the table scan when nothing can be stale
        #: (the common case while every peer keeps gossiping).
        self._oldest_ts = float("inf")
        self._timer = PeriodicTimer(sim, period, self._gossip)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, phase: Optional[float] = None) -> None:
        self._refresh_own_sample()
        self._timer.start(phase if phase is not None
                          else self._rng.uniform(0, self._timer.period))

    def stop(self) -> None:
        self._timer.stop()

    # ------------------------------------------------------------------
    # sample table
    # ------------------------------------------------------------------
    def _refresh_own_sample(self) -> None:
        own = self.node_id
        self._table[own] = (own, self._capability(), self._sim.now)

    def _evict_stale(self) -> None:
        if self.sample_ttl <= 0:
            return
        cutoff = self._sim.now - self.sample_ttl
        if self._oldest_ts >= cutoff:
            return  # even the oldest known sample is still fresh
        own = self.node_id
        table = self._table
        stale = [node for node, sample in table.items()
                 if sample[2] < cutoff and node != own]
        for node in stale:
            del table[node]
        self._oldest_ts = min(
            (sample[2] for node, sample in table.items() if node != own),
            default=float("inf"))

    def freshest(self, count: int) -> List[Sample]:
        """The ``count`` freshest samples as (node, capability, timestamp).

        Newest first; samples with equal timestamps keep the order in
        which their nodes first entered the table (``sorted`` is stable,
        ``reverse=True`` included, and a dict iterates in insertion
        order) — the tie order the golden traces pin.  The entries are
        the table's own tuples, not copies.  A round makes the same sort
        inline.
        """
        return sorted(self._table.values(), key=_timestamp_of,
                      reverse=True)[:count]

    def sample_count(self) -> int:
        return len(self._table)

    # ------------------------------------------------------------------
    # the estimate
    # ------------------------------------------------------------------
    def average_estimate(self) -> float:
        """Mean capability over the current sample table (always >= own)."""
        table = self._table
        if not table:
            return self._capability()
        return sum(map(_capability_of, table.values())) / len(table)

    def relative_capability(self) -> float:
        """This node's capability over the estimated average: HEAP's b_p/b."""
        average = self.average_estimate()
        if average <= 0:
            return 1.0
        return self._capability() / average

    # ------------------------------------------------------------------
    # gossip exchange
    # ------------------------------------------------------------------
    def _gossip(self) -> None:
        now = self._sim._now
        own = self.node_id
        table = self._table
        table[own] = (own, self._capability(), now)
        if self._oldest_ts < now - self.sample_ttl:
            self._evict_stale()
        partners = self._view.sample(self.fanout, self._rng)
        if not partners:
            return
        # freshest(fresh_count) and AggregationMessage(fresh), inline.
        fresh = sorted(table.values(), key=_timestamp_of,
                       reverse=True)[:self.fresh_count]
        message = _new_message(AggregationMessage)
        message.samples = fresh
        message._wire_size = _HEADER_BYTES + _SAMPLE_BYTES * len(fresh)
        if len(partners) == 1:
            self._net.send(own, partners[0], message)
        else:
            self._net.send_many(own, partners, message)

    def on_message(self, src: int, message: AggregationMessage) -> None:
        """Merge ``message``'s samples, keeping the freshest per node."""
        table = self._table
        own = self.node_id
        oldest = self._oldest_ts
        for sample in message.samples:
            node, _, timestamp = sample
            if node == own:
                continue  # nobody knows our capability better than we do
            # One dict operation for a node new to the table.  A sample
            # already stored (a relayed tuple seen again) falls through
            # harmlessly: ``oldest`` already bounds its timestamp.
            existing = table.setdefault(node, sample)
            if existing is not sample:
                if timestamp <= existing[2]:
                    continue
                table[node] = sample
            if timestamp < oldest:
                oldest = timestamp
        self._oldest_ts = oldest
        if oldest < self._sim._now - self.sample_ttl:
            self._evict_stale()

    def on_envelope(self, envelope: Envelope) -> None:
        """The aggregation kind's entry in the host's dispatch table."""
        self.on_message(envelope.src, envelope.payload)
