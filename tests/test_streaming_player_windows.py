"""The playback analyzer's window arithmetic against a per-packet loop.

``PlaybackAnalyzer`` reads a missing packet as ``inf`` and counts or
sorts a whole window at once; this module keeps the per-packet loop it
replaced and checks every answer against it on the paper's window
geometry (101 source + 9 FEC packets) with irregular publish times read
from a list, missing packets, duplicates and deliveries at exactly
``publish + lag``.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.packets import StreamConfig
from repro.streaming.player import OFFLINE, PlaybackAnalyzer
from repro.streaming.receiver import ReceiverLog

CONFIG = StreamConfig()
PER_WINDOW = CONFIG.packets_per_window
NEEDED = CONFIG.source_packets_per_window
WINDOWS = 3


def _reference_on_time(log, publish_time, window_id, lag):
    source = fec = 0
    start = window_id * PER_WINDOW
    for index in range(PER_WINDOW):
        delivered = log.delivery_time(start + index)
        if delivered is not None and delivered <= publish_time(start + index) + lag:
            if index < NEEDED:
                source += 1
            else:
                fec += 1
    return source, fec


def _reference_required_lag(log, publish_time, window_id):
    start = window_id * PER_WINDOW
    delays = [log.delivery_time(packet_id) - publish_time(packet_id)
              for packet_id in range(start, start + PER_WINDOW)
              if log.delivery_time(packet_id) is not None]
    if len(delays) < NEEDED:
        return OFFLINE
    delays.sort()
    return max(0.0, delays[NEEDED - 1])


def _reference_delivery_ratio_lag(log, publish_time, total, ratio):
    needed = math.ceil(ratio * total)
    delays = sorted(delivered - publish_time(packet_id)
                    for packet_id, delivered in log.items())
    if len(delays) < needed:
        return OFFLINE
    return max(0.0, delays[needed - 1])


#: Delays that repeat (so lags can equal a delay to the bit) and any others.
EXACT = [0.0, 0.1, 0.25, 1.0, 3.0]
LAG = st.one_of(st.sampled_from(EXACT + [OFFLINE]), st.floats(0.0, 5.0))


@st.composite
def _stream(draw):
    """Publish times (nondecreasing, irregular) and one node's log."""
    fill = random.Random(draw(st.integers(0, 2 ** 32)))
    published = []
    now = draw(st.sampled_from([0.0, 3.7]))
    for _ in range(WINDOWS * PER_WINDOW):
        now += fill.choice([0.0, 0.01, 0.0123, 0.5])
        published.append(now)
    log = ReceiverLog(1)
    # Which packets arrive: everything, nothing, or a drawn share.
    share = draw(st.sampled_from([0.0, 0.9, 0.92, 1.0]))
    for packet_id, time in enumerate(published):
        if fill.random() < share:
            delay = (fill.choice(EXACT) if fill.random() < 0.5
                     else fill.uniform(-0.5, 5.0))
            log.record(packet_id, time + delay)
    for packet_id in draw(st.lists(st.integers(0, len(published) - 1),
                                   max_size=5)):
        log.record(packet_id, 99.0)  # a duplicate, or a very late first copy
    return published, log


@settings(max_examples=150, deadline=None)
@given(_stream(), st.lists(LAG, min_size=1, max_size=4),
       st.floats(0.01, 1.0))
def test_window_answers_equal_the_per_packet_loop(stream, lags, ratio):
    published, log = stream
    publish_time = published.__getitem__
    analyzer = PlaybackAnalyzer(CONFIG, publish_time)
    for _ in range(2):  # the second pass is answered from the memo
        for window_id in range(WINDOWS):
            for lag in lags:
                playback = analyzer.window_playback(log, window_id, lag)
                assert ((playback.on_time_source, playback.on_time_fec)
                        == _reference_on_time(log, publish_time, window_id,
                                              lag))
            assert (analyzer.window_required_lag(log, window_id)
                    == _reference_required_lag(log, publish_time, window_id))
        assert (analyzer.min_lag_delivery_ratio(log, len(published), ratio)
                == _reference_delivery_ratio_lag(log, publish_time,
                                                 len(published), ratio))


def test_a_delivery_at_exactly_publish_plus_lag_is_on_time():
    published = [0.1 * i + 0.0123 for i in range(PER_WINDOW)]
    log = ReceiverLog(1)
    lag = 0.3
    for packet_id, time in enumerate(published):
        if packet_id != 5:  # one source packet missing
            log.record(packet_id, time + lag)
    analyzer = PlaybackAnalyzer(CONFIG, published.__getitem__)
    assert analyzer._on_time(log, 0, lag) == (NEEDED - 1, PER_WINDOW - NEEDED)
    assert analyzer._on_time(log, 0, OFFLINE) == (NEEDED - 1,
                                                  PER_WINDOW - NEEDED)
    earlier = math.nextafter(lag, 0.0)
    assert analyzer._on_time(log, 0, earlier) == _reference_on_time(
        log, published.__getitem__, 0, earlier)
    assert analyzer.window_required_lag(log, 0) == _reference_required_lag(
        log, published.__getitem__, 0)
