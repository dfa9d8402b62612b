"""The stream source.

Publishes :class:`~repro.streaming.packets.StreamPacket` objects at the
configured effective rate into a publish callback — in experiments that
callback is the broadcaster node's ``publish`` (Algorithm 1), which
delivers locally and gossips the fresh id.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import EventHandle, Simulator
from repro.streaming.packets import StreamConfig, StreamPacket


class StreamSource:
    """Emits the encoded stream, one packet at a time."""

    __slots__ = ("_sim", "config", "_publish", "total_packets",
                 "packets_published", "_handle", "_stopped")

    def __init__(self, sim: Simulator, config: StreamConfig,
                 publish: Callable[[StreamPacket], None],
                 total_packets: Optional[int] = None):
        self._sim = sim
        self.config = config
        self._publish = publish
        self.total_packets = total_packets
        self.packets_published = 0
        self._handle: Optional[EventHandle] = None
        self._stopped = False

    def start(self, delay: float = 0.0) -> None:
        if self._handle is not None or self._stopped:
            raise RuntimeError("source already started")
        self._handle = self._sim.schedule(delay, self._emit)

    def stop(self) -> None:
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def finished(self) -> bool:
        """True once the configured number of packets has been published."""
        return (self.total_packets is not None
                and self.packets_published >= self.total_packets)

    def _emit(self) -> None:
        self._handle = None
        if self._stopped or self.finished:
            return
        packet_id = self.packets_published
        packet = StreamPacket(
            packet_id=packet_id,
            window_id=self.config.window_of(packet_id),
            publish_time=self._sim.now,
            is_fec=self.config.is_fec(packet_id),
            size_bytes=self.config.packet_size_bytes,
        )
        self.packets_published += 1
        self._publish(packet)
        if not self.finished and not self._stopped:
            self._handle = self._sim.schedule(self.config.packet_interval, self._emit)
