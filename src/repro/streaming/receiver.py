"""Per-node delivery log.

Records when each stream packet was first delivered to the node's
application layer.  Every evaluation metric — stream lag, jitter,
per-window decode state — is computed offline from these logs plus the
source's publish times, mirroring how the paper instruments its testbed.
"""

from __future__ import annotations

from itertools import repeat
from math import inf
from typing import Dict, Iterator, List, Optional, Tuple


class ReceiverLog:
    """First-delivery times of stream packets at one node."""

    __slots__ = ("node_id", "_deliveries", "duplicates")

    def __init__(self, node_id: int):
        self.node_id = node_id
        self._deliveries: Dict[int, float] = {}
        self.duplicates = 0

    def record(self, packet_id: int, time: float) -> bool:
        """Record a delivery; returns False (and counts it) for duplicates.

        The three-phase protocol should never deliver a payload twice —
        the duplicate counter existing and staying at zero is itself a
        protocol invariant the integration tests assert.
        """
        if packet_id in self._deliveries:
            self.duplicates += 1
            return False
        self._deliveries[packet_id] = time
        return True

    def delivery_time(self, packet_id: int) -> Optional[float]:
        return self._deliveries.get(packet_id)

    def delivery_times(self, start: int, stop: int) -> List[float]:
        """Delivery time of each packet in ``[start, stop)``, ``inf``
        where it never arrived: one window, read in one call."""
        return list(map(self._deliveries.get, range(start, stop),
                        repeat(inf)))

    def has(self, packet_id: int) -> bool:
        return packet_id in self._deliveries

    def __len__(self) -> int:
        return len(self._deliveries)

    def items(self) -> Iterator[Tuple[int, float]]:
        return iter(self._deliveries.items())

    def delivery_ratio(self, total_published: int) -> float:
        """Fraction of all published packets this node ever received."""
        if total_published == 0:
            return 1.0
        return len(self._deliveries) / total_published
