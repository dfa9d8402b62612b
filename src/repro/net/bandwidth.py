"""Uplink bandwidth throttling: the paper's application-level rate limiter.

Every node owns an :class:`UplinkQueue` with a configured capacity in
bits per second.  Outgoing datagrams are serialized through it FIFO:
a datagram of S bytes occupies the link for ``S * 8 / capacity`` seconds,
starting when all previously enqueued datagrams have finished.  A node
asked to upload faster than its capacity therefore accumulates queueing
delay — exactly the congestion dynamic the paper identifies at
low-capability nodes under homogeneous gossip.

Downloads are not modelled ("download capabilities are much higher than
upload ones" — the paper constrains upload only).
"""

from __future__ import annotations

from typing import Optional


class UplinkQueue:
    """FIFO serialization queue for one node's upload link.

    The queue is unbounded by default, matching the paper ("excess packets
    ... are queued at the application level, and sent as soon as there is
    enough available bandwidth").  An optional ``max_delay`` drops
    datagrams that would wait longer — used by the queue-cap ablation.
    """

    __slots__ = ("capacity_bps", "max_delay", "busy_until", "bytes_sent",
                 "datagrams_sent", "datagrams_dropped")

    def __init__(self, capacity_bps: float, max_delay: Optional[float] = None):
        if capacity_bps <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bps!r}")
        if max_delay is not None and max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay!r}")
        self.capacity_bps = capacity_bps
        self.max_delay = max_delay
        self.busy_until = 0.0
        self.bytes_sent = 0
        self.datagrams_sent = 0
        self.datagrams_dropped = 0

    def enqueue(self, now: float, size_bytes: int) -> Optional[float]:
        """Serialize a datagram; return its link-exit time, or None if dropped.

        The returned time is when the last bit leaves the uplink;
        propagation latency is added by the network on top of it.
        """
        wait = self.busy_until - now
        if wait < 0.0:
            wait = 0.0
        if self.max_delay is not None and wait > self.max_delay:
            self.datagrams_dropped += 1
            return None
        start = now + wait
        finish = start + size_bytes * 8.0 / self.capacity_bps
        self.busy_until = finish
        self.bytes_sent += size_bytes
        self.datagrams_sent += 1
        return finish

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds the uplink spent transmitting.

        This is the metric behind the paper's Figure 4 ("average bandwidth
        usage by bandwidth class"): bytes actually pushed through the link
        over what the capacity would have allowed.
        """
        if elapsed <= 0:
            return 0.0
        return min(1.0, (self.bytes_sent * 8.0 / self.capacity_bps) / elapsed)

    def set_capacity(self, capacity_bps: float) -> None:
        """Change the link capacity (used by degraded-node effects).

        Takes effect for subsequently enqueued datagrams; in-flight ones
        keep their already-computed exit times.
        """
        if capacity_bps <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bps!r}")
        self.capacity_bps = capacity_bps
