"""Video-streaming substrate.

Models the paper's streaming application layer:

* 1316-byte stream packets produced at a 600 kbps effective rate
  (551 kbps of source data + systematic FEC overhead);
* FEC windows of 101 source packets plus 9 repair packets — a window is
  decodable iff at least 101 of its 110 packets arrive
  (:class:`~repro.streaming.player.WindowPlayback`);
* a :class:`~repro.streaming.source.StreamSource` that publishes packets
  into the dissemination protocol on a timer;
* per-node :class:`~repro.streaming.receiver.ReceiverLog` recording
  delivery times, and a :class:`~repro.streaming.player.PlaybackAnalyzer`
  that answers "what does the stream look like at lag L?" — the question
  behind every quality/lag figure in the paper.

Packet ids are dense (0 to ``total_packets - 1``, never negative), so
per-packet state lives in flat arrays indexed by packet id: a receiver
log is one ``array('d')`` of delivery times with ``inf`` for a missing
packet, and a gossip node's store and request marks are a list and a
``bytearray`` (:mod:`repro.core.base`).
"""

from repro.streaming.packets import StreamConfig, StreamPacket
from repro.streaming.player import PlaybackAnalyzer, WindowPlayback
from repro.streaming.receiver import ReceiverLog
from repro.streaming.source import StreamSource

__all__ = [
    "PlaybackAnalyzer",
    "ReceiverLog",
    "StreamConfig",
    "StreamPacket",
    "StreamSource",
    "WindowPlayback",
]
