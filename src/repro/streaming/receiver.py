"""Per-node delivery log.

Records when each stream packet was first delivered to the node's
application layer.  Every evaluation metric — stream lag, jitter,
per-window decode state — is computed offline from these logs plus the
source's publish times, mirroring how the paper instruments its testbed.
"""

from __future__ import annotations

from array import array
from math import inf
from operator import sub
from typing import Iterator, List, Optional, Sequence, Tuple

#: One undelivered slot, repeated to pad the time array.
_MISSING = array("d", (inf,))


class ReceiverLog:
    """First-delivery times of stream packets at one node.

    Packet ids are dense (the source numbers them from 0), so the log is
    one ``array('d')`` indexed by packet id: 8 bytes a packet, where a
    dict entry and its boxed float cost about 100.  A packet that never
    arrived reads ``inf``, the value :meth:`delivery_times` reports for
    it; an id past the array's end reads the same.  The array grows to
    the largest id recorded or reserved (a gossip node reserves each id
    it hears proposed), never past it; the array type over-allocates, so
    growth is amortized.  A count of deliveries backs ``len``.  The log
    pickles, as shard harvests need.
    """

    __slots__ = ("node_id", "_times", "_count", "duplicates")

    def __init__(self, node_id: int):
        self.node_id = node_id
        self._times = array("d")
        self._count = 0
        self.duplicates = 0

    def reserve(self, packets: int) -> None:
        """Make room for ids below ``packets``; no reading changes."""
        times = self._times
        if packets > len(times):
            times.extend(_MISSING * (packets - len(times)))

    def record(self, packet_id: int, time: float) -> bool:
        """Record a delivery; returns False (and counts it) for duplicates.

        The three-phase protocol should never deliver a payload twice —
        the duplicate counter existing and staying at zero is itself a
        protocol invariant the integration tests assert.
        """
        if packet_id < 0:
            raise ValueError(f"packet id must be non-negative, "
                             f"got {packet_id!r}")
        times = self._times
        if packet_id < len(times):
            if times[packet_id] != inf:
                self.duplicates += 1
                return False
            times[packet_id] = time
        else:  # past the end: most often the next id, an append
            self.reserve(packet_id)
            times.append(time)
        self._count += 1
        return True

    def delivery_time(self, packet_id: int) -> Optional[float]:
        return self._times[packet_id] if self.has(packet_id) else None

    def delivery_times(self, start: int, stop: int) -> List[float]:
        """Delivery time of each packet in ``[start, stop)``, ``inf``
        where it never arrived: one window, read in one call."""
        if start < 0:
            raise ValueError(f"packet ids start at 0, got {start!r}")
        times = self._times[start:stop].tolist()
        return times + [inf] * (stop - start - len(times))

    def delays(self, publish_times: Sequence[float]) -> List[float]:
        """Delivery time minus publish time of ids ``0, 1, ...`` as far
        as both this log and ``publish_times`` reach, ``inf`` where the
        packet never arrived, in one C-level pass."""
        return list(map(sub, self._times, publish_times))

    def has(self, packet_id: int) -> bool:
        times = self._times
        return 0 <= packet_id < len(times) and times[packet_id] != inf

    def __len__(self) -> int:
        return self._count

    def items(self) -> Iterator[Tuple[int, float]]:
        """(packet id, delivery time) of every delivery, ids ascending."""
        return ((packet_id, time) for packet_id, time in enumerate(self._times)
                if time != inf)

    def delivery_ratio(self, total_published: int) -> float:
        """Fraction of all published packets this node ever received."""
        if total_published == 0:
            return 1.0
        return self._count / total_published
