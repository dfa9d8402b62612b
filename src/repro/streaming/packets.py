"""Stream packet model and stream-level configuration.

Packet ids are dense global sequence numbers.  A packet belongs to window
``id // packets_per_window``; the first ``source_packets`` indices inside
a window carry stream data, the rest are FEC repair packets — this is
*systematic* coding, so source packets are useful on their own even when
the window cannot be fully decoded (the behaviour behind the paper's
"delivery ratio in jittered windows" metric, Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class StreamConfig:
    """Parameters of the encoded stream (defaults are the paper's)."""

    packet_size_bytes: int = 1316
    source_packets_per_window: int = 101
    fec_packets_per_window: int = 9
    effective_rate_bps: float = 600_000.0

    @property
    def packets_per_window(self) -> int:
        return self.source_packets_per_window + self.fec_packets_per_window

    @property
    def packet_interval(self) -> float:
        """Seconds between consecutive packet publications at the source."""
        return self.packet_size_bytes * 8.0 / self.effective_rate_bps

    @property
    def source_rate_bps(self) -> float:
        """Rate of useful (non-FEC) stream data; ~551 kbps at defaults."""
        return (self.effective_rate_bps * self.source_packets_per_window
                / self.packets_per_window)

    @property
    def window_duration(self) -> float:
        """Wall-clock seconds of stream covered by one window (~1.93 s)."""
        return self.packet_interval * self.packets_per_window

    def window_of(self, packet_id: int) -> int:
        return packet_id // self.packets_per_window

    def index_in_window(self, packet_id: int) -> int:
        return packet_id % self.packets_per_window

    def is_fec(self, packet_id: int) -> bool:
        return self.index_in_window(packet_id) >= self.source_packets_per_window

    def packets_for_duration(self, seconds: float) -> int:
        """Number of whole windows' worth of packets covering ``seconds``."""
        windows = max(1, round(seconds / self.window_duration))
        return windows * self.packets_per_window

    def __post_init__(self) -> None:
        errors = []
        if self.packet_size_bytes <= 0:
            errors.append("packet size must be positive")
        if self.source_packets_per_window <= 0 or self.fec_packets_per_window < 0:
            errors.append("invalid window composition")
        if self.effective_rate_bps <= 0:
            errors.append("stream rate must be positive")
        if errors:
            raise ValueError("; ".join(errors))


@dataclass(frozen=True)
class StreamPacket:
    """One published stream packet."""

    packet_id: int
    window_id: int
    publish_time: float
    is_fec: bool = False
    size_bytes: int = 1316

    def __post_init__(self):
        if self.packet_id < 0:
            raise ValueError("packet id must be non-negative")
