"""Gossip-based capability aggregation (Algorithm 2, right column).

Every ``aggregation_period`` a node sends the 10 freshest
(node, capability, timestamp) samples it knows — always including its own,
refreshed — to ``aggregation_fanout`` random peers.  Receivers merge by
keeping the freshest sample per node and estimate the system-wide average
upload capability as the mean over their (TTL-bounded) sample table.

The estimate feeds HEAP's fanout adaptation; its accuracy/latency
trade-off is explored by ``benchmarks/bench_ablation_aggregation.py``.

The sample table is columnar: two dicts, ``node -> capability`` and
``node -> timestamp``, holding the same keys in the same insertion order
(every write stores into both, every eviction deletes from both).  A
round sorts by timestamp and a merge compares timestamps, so neither
touches the capabilities until the freshest few are picked, and an
accepted sample costs two float stores instead of a fresh tuple.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.membership.view import LocalView
from repro.net.message import register_kind
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer

#: Fixed header bytes inside an aggregation datagram payload.
_HEADER_BYTES = 8
#: Bytes per serialized sample (node id, capability, age).
_SAMPLE_BYTES = 12


class AggregationMessage:
    """[Aggregation, fresh] — a batch of capability samples."""

    kind = "aggregation"
    kind_id = register_kind("aggregation")
    __slots__ = ("samples", "_wire_size")

    def __init__(self, samples: List[Tuple[int, float, float]]):
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
                 "fresh_count", "fanout", "sample_ttl", "_caps", "_ts",
                 "_oldest_ts", "_timer")

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
        #: node_id -> capability_bps and node_id -> sample_timestamp: one
        #: table in two columns (same keys, same insertion order).
        self._caps: Dict[int, float] = {}
        self._ts: Dict[int, float] = {}
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
        self._caps[self.node_id] = self._capability()
        self._ts[self.node_id] = self._sim.now

    def _evict_stale(self) -> None:
        if self.sample_ttl <= 0:
            return
        cutoff = self._sim.now - self.sample_ttl
        if self._oldest_ts >= cutoff:
            return  # even the oldest known sample is still fresh
        own = self.node_id
        caps = self._caps
        timestamps = self._ts
        stale = [node for node, ts in timestamps.items()
                 if ts < cutoff and node != own]
        for node in stale:
            del caps[node]
            del timestamps[node]
        self._oldest_ts = min(
            (ts for node, ts in timestamps.items() if node != own),
            default=float("inf"))

    def freshest(self, count: int) -> List[Tuple[int, float, float]]:
        """The ``count`` freshest samples as (node, capability, timestamp).

        Newest first; samples with equal timestamps keep the order in
        which their nodes first entered the table (``sorted`` is stable,
        ``reverse=True`` included, and a dict iterates in insertion
        order) — the tie order the golden traces pin.  The key is the
        timestamp column's own C-level ``__getitem__``.
        """
        caps = self._caps
        timestamps = self._ts
        ordered = sorted(timestamps, key=timestamps.__getitem__, reverse=True)
        return [(node, caps[node], timestamps[node])
                for node in ordered[:count]]

    def sample_count(self) -> int:
        return len(self._ts)

    # ------------------------------------------------------------------
    # the estimate
    # ------------------------------------------------------------------
    def average_estimate(self) -> float:
        """Mean capability over the current sample table (always >= own)."""
        caps = self._caps
        if not caps:
            return self._capability()
        return sum(caps.values()) / len(caps)

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
        self._refresh_own_sample()
        self._evict_stale()
        partners = self._view.sample(self.fanout, self._rng)
        if not partners:
            return
        fresh = self.freshest(self.fresh_count)
        self._net.send_many(self.node_id, partners, AggregationMessage(fresh))

    def on_message(self, src: int, message: AggregationMessage) -> None:
        caps = self._caps
        timestamps = self._ts
        own = self.node_id
        oldest = self._oldest_ts
        for node, capability, timestamp in message.samples:
            if node == own:
                continue  # nobody knows our capability better than we do
            existing = timestamps.get(node)
            if existing is None or timestamp > existing:
                caps[node] = capability
                timestamps[node] = timestamp
                if timestamp < oldest:
                    oldest = timestamp
        self._oldest_ts = oldest
        self._evict_stale()
