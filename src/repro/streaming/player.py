"""Playback analysis: what does a node's stream look like at lag L?

The paper's metrics (Section 3.2) are all functions of a *stream lag* L:
a packet is usable iff it was delivered no later than ``publish_time + L``;
a window is *jittered* at lag L iff fewer than 101 of its 110 packets are
usable.  This module answers those questions from a
:class:`~repro.streaming.receiver.ReceiverLog` plus the publish times,
including the inverse queries ("what is the minimal lag for a jitter-free
stream?") behind Figures 8 and 9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub
from typing import Callable, Dict, List, Sequence, Tuple

from repro.streaming.packets import StreamConfig
from repro.streaming.receiver import ReceiverLog

#: Lag value meaning "viewed offline, after the experiment" (Figure 7).
OFFLINE = math.inf


@dataclass
class WindowPlayback:
    """Decode state of one window at one lag."""

    window_id: int
    on_time_source: int
    on_time_fec: int
    needed: int
    source_per_window: int

    @property
    def on_time_total(self) -> int:
        return self.on_time_source + self.on_time_fec

    @property
    def decodable(self) -> bool:
        return self.on_time_total >= self.needed

    @property
    def jittered(self) -> bool:
        return not self.decodable

    @property
    def viewable_source_packets(self) -> int:
        if self.decodable:
            return self.source_per_window
        return self.on_time_source

    @property
    def delivery_ratio(self) -> float:
        return self.viewable_source_packets / self.source_per_window


class PlaybackAnalyzer:
    """Computes playback metrics for receiver logs.

    ``publish_time`` maps a packet id to the time the source published it
    (in experiments: ``publish_times.__getitem__`` over the recorded list).

    Per-window answers are memoized: a window's required lag per
    (log, window) and its on-time counts per (log, window, lag).  The
    standard summary bundle asks for every window's required lag three
    times and for its playback at 10 s twice; the memo reads the window
    once per answer.  ``log.delivery_times`` reads it in one call, with
    ``inf`` for a packet that never arrived, so ``OFFLINE`` counts the
    packets that arrived at all (``delivered <= publish + inf`` holds
    for each) and the required lag is the ``needed``-th smallest of
    ``delivered - publish``, where a missing packet's ``inf`` sorts
    last.  A finite lag keeps the per-packet ``delivered <= publish +
    lag`` loop: under CPython 3.11 it beats ``map(operator.le, ...)``,
    whose builtin call per packet costs more than the loop's
    specialized float compare.  The times are not kept, so the memo
    stays as small as its answers.  A log's memo is stamped with
    ``len(log)``: a :class:`~repro.streaming.receiver.ReceiverLog` only
    grows, so an equal length means equal contents, and a log that has
    grown since is recomputed, never answered from a stale entry.  The
    memo holds the logs it was asked about for as long as the analyzer
    lives.  :meth:`min_lag_delivery_ratio` reads a log's delays with
    :meth:`ReceiverLog.delays` against a list of publish times that the
    analyzer reads through ``publish_time`` once and keeps.
    """

    def __init__(self, config: StreamConfig, publish_time: Callable[[int], float]):
        self.config = config
        self._publish_time = publish_time
        #: publish_time of ids 0, 1, ..., as far as a query has read.
        self._publish_times: List[float] = []
        self._per_window = config.packets_per_window
        self._needed = config.source_packets_per_window
        #: log -> (len(log) when filled, {window: required lag},
        #: {lag: {window: (on-time source, on-time FEC)}}).
        self._memo: Dict[ReceiverLog, tuple] = {}

    def _memo_of(self, log: ReceiverLog) -> tuple:
        memo = self._memo.get(log)
        if memo is None or memo[0] != len(log):
            memo = self._memo[log] = (len(log), {}, {})
        return memo

    def _on_time(self, log: ReceiverLog, window_id: int, lag: float) -> Tuple[int, int]:
        """(source, FEC) packets of ``window_id`` delivered by ``lag``."""
        by_window = self._memo_of(log)[2].setdefault(lag, {})
        counts = by_window.get(window_id)
        if counts is None:
            start = window_id * self._per_window
            stop = start + self._per_window
            arrived = log.delivery_times(start, stop)
            # Systematic code: a window's source packets come first.
            sources = self._needed
            if lag == OFFLINE:
                fec = self._per_window - sources
                counts = (sources - arrived[:sources].count(math.inf),
                          fec - arrived[sources:].count(math.inf))
            else:
                published = map(self._publish_time, range(start, stop))
                source = fec = 0
                # zip ends at the source slice's end before it takes from
                # ``published``, so the FEC loop starts at its first packet.
                for delivered, publish in zip(arrived[:sources], published):
                    if delivered <= publish + lag:
                        source += 1
                for delivered, publish in zip(arrived[sources:], published):
                    if delivered <= publish + lag:
                        fec += 1
                counts = (source, fec)
            by_window[window_id] = counts
        return counts

    # ------------------------------------------------------------------
    # forward queries: behaviour at a given lag
    # ------------------------------------------------------------------
    def window_playback(self, log: ReceiverLog, window_id: int, lag: float) -> WindowPlayback:
        on_time_source, on_time_fec = self._on_time(log, window_id, lag)
        return WindowPlayback(
            window_id=window_id,
            on_time_source=on_time_source,
            on_time_fec=on_time_fec,
            needed=self._needed,
            source_per_window=self._needed,
        )

    def playback(self, log: ReceiverLog, windows: Sequence[int], lag: float) -> List[WindowPlayback]:
        return [self.window_playback(log, w, lag) for w in windows]

    def jitter_fraction(self, log: ReceiverLog, windows: Sequence[int], lag: float) -> float:
        """Fraction of ``windows`` that are jittered at ``lag`` (Fig. 7 x-axis)."""
        if not windows:
            return 0.0
        jittered = sum(1 for w in windows
                       if self.window_playback(log, w, lag).jittered)
        return jittered / len(windows)

    def jitter_free_fraction(self, log: ReceiverLog, windows: Sequence[int], lag: float) -> float:
        """Fraction of windows decodable at ``lag`` (Figs. 5 and 6 y-axis)."""
        return 1.0 - self.jitter_fraction(log, windows, lag)

    def mean_jittered_delivery_ratio(self, log: ReceiverLog, windows: Sequence[int],
                                     lag: float) -> float:
        """Average delivery ratio *inside jittered windows only* (Table 2).

        Returns 1.0 when no window is jittered (nothing to average —
        reported as perfect, as the paper's table footnote implies).
        """
        ratios = [wp.delivery_ratio
                  for wp in self.playback(log, windows, lag) if wp.jittered]
        if not ratios:
            return 1.0
        return sum(ratios) / len(ratios)

    # ------------------------------------------------------------------
    # inverse queries: minimal lag achieving a target
    # ------------------------------------------------------------------
    def window_required_lag(self, log: ReceiverLog, window_id: int) -> float:
        """Smallest lag at which ``window_id`` decodes; inf if it never does."""
        required = self._memo_of(log)[1]
        lag = required.get(window_id)
        if lag is None:
            start = window_id * self._per_window
            stop = start + self._per_window
            delays = sorted(map(sub, log.delivery_times(start, stop),
                                map(self._publish_time, range(start, stop))))
            lag = required[window_id] = max(0.0, delays[self._needed - 1])
        return lag

    def min_lag_jitter_free(self, log: ReceiverLog, windows: Sequence[int]) -> float:
        """Smallest lag at which *every* window decodes (Figs. 8, 9 'no jitter')."""
        if not windows:
            return 0.0
        return max(self.window_required_lag(log, w) for w in windows)

    def min_lag_max_jitter(self, log: ReceiverLog, windows: Sequence[int],
                           max_jitter: float) -> float:
        """Smallest lag at which the jittered fraction is <= ``max_jitter``
        (Fig. 9 'max 1% jitter' uses max_jitter=0.01).  0.0 when every
        window may jitter (``max_jitter=1.0``)."""
        if not windows:
            return 0.0
        if not 0.0 <= max_jitter <= 1.0:
            raise ValueError(f"max_jitter must be in [0, 1], got {max_jitter!r}")
        required = sorted(self.window_required_lag(log, w) for w in windows)
        allowed_jittered = math.floor(max_jitter * len(required))
        if allowed_jittered >= len(required):
            return 0.0
        return required[len(required) - 1 - allowed_jittered]

    def min_lag_delivery_ratio(self, log: ReceiverLog, total_packets: int,
                               ratio: float) -> float:
        """Smallest lag at which the node has received ``ratio`` of all
        published packets on time (Fig. 1's '99% delivery' curves)."""
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {ratio!r}")
        needed = math.ceil(ratio * total_packets)
        if len(log) < needed:
            return OFFLINE
        # One pass over the log's dense times and the publish times: a
        # missing packet's ``inf`` delay sorts after every real one.
        delays = log.delays(self._published(total_packets))
        delays.sort()
        return max(0.0, delays[needed - 1])

    def _published(self, count: int) -> List[float]:
        """Publish times of ids ``[0, count)``, each read through
        ``publish_time`` once per analyzer."""
        published = self._publish_times
        if len(published) < count:
            published.extend(map(self._publish_time,
                                 range(len(published), count)))
        return published if len(published) == count else published[:count]
