"""The paper's FEC decode rule, pinned on the playback analyzer.

A window of 101 source packets plus 9 repair packets (110 in all) is
decodable from *any* 101 of them, and an undecodable ("jittered") window
still shows every source packet that arrived directly (systematic code).
:class:`~repro.streaming.player.PlaybackAnalyzer` applies that rule to
every figure; at lag ``OFFLINE`` every delivered packet is on time, so
these cases exercise the erasure rule alone.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.streaming.packets import StreamConfig
from repro.streaming.player import OFFLINE, PlaybackAnalyzer, WindowPlayback
from repro.streaming.receiver import ReceiverLog

PAPER = StreamConfig()
SMALL = StreamConfig(source_packets_per_window=5, fec_packets_per_window=2)


def playback(window_id, packet_ids, config=PAPER):
    """Window ``window_id`` at lag OFFLINE after ``packet_ids`` arrived
    (a repeated id is a duplicate delivery)."""
    log = ReceiverLog(0)
    for packet_id in packet_ids:
        log.record(packet_id, 0.0)
    analyzer = PlaybackAnalyzer(config, lambda packet_id: 0.0)
    return analyzer.window_playback(log, window_id, OFFLINE)


def test_full_window_decodes():
    state = playback(0, range(110))
    assert state.decodable
    assert state.on_time_source == 101
    assert state.on_time_fec == 9
    assert state.delivery_ratio == 1.0


def test_exactly_101_any_mix_decodes():
    # 92 source + 9 FEC = 101 -> decodable, all 101 source viewable.
    state = playback(0, list(range(92)) + list(range(101, 110)))
    assert state.on_time_total == 101
    assert state.decodable
    assert state.viewable_source_packets == 101


def test_100_packets_is_jittered_but_systematic():
    state = playback(0, range(100))  # 100 source packets
    assert state.jittered
    assert state.viewable_source_packets == 100
    assert state.delivery_ratio == 100 / 101


def test_fec_only_useless_when_undecodable():
    state = playback(0, range(101, 110))  # only the 9 FEC packets
    assert not state.decodable
    assert state.viewable_source_packets == 0
    assert state.delivery_ratio == 0.0


def test_packets_of_other_windows_ignored():
    state = playback(1, list(range(0, 110)) + list(range(110, 115)))
    assert state.on_time_total == 5


def test_duplicates_ignored():
    state = playback(0, [0, 0, 0, 1])
    assert state.on_time_total == 2


def test_is_decodable_threshold():
    assert not playback(0, range(100)).decodable
    assert playback(0, range(101)).decodable
    assert playback(0, range(110)).decodable


def test_window_packet_ids():
    assert [PAPER.window_of(p) for p in (219, 220, 329, 330)] == [1, 2, 2, 3]
    assert playback(2, range(220, 330)).on_time_total == 110
    assert playback(2, [219, 330]).on_time_total == 0


@given(st.sets(st.integers(min_value=0, max_value=6)))
def test_property_decodable_iff_enough_packets(received):
    """Window decodes iff at least `source_per_window` distinct packets arrive."""
    state = playback(0, received, SMALL)
    assert state.decodable == (len(received) >= 5)


@given(st.sets(st.integers(min_value=0, max_value=6)))
def test_property_viewable_never_exceeds_window_and_monotone(received):
    state = playback(0, received, SMALL)
    assert 0 <= state.viewable_source_packets <= 5
    # Adding a packet never reduces the viewable count.
    for extra in set(range(7)) - received:
        bigger = playback(0, received | {extra}, SMALL)
        assert bigger.viewable_source_packets >= state.viewable_source_packets


@given(st.sets(st.integers(min_value=0, max_value=6)))
def test_property_decodable_implies_full_delivery(received):
    state = playback(0, received, SMALL)
    if state.decodable:
        assert state.delivery_ratio == 1.0
    else:
        source_received = len([p for p in received if p < 5])
        assert state.delivery_ratio == source_received / 5


@given(st.lists(st.integers(min_value=0, max_value=329), max_size=60))
def test_property_counts_partition_by_window(packet_ids):
    """Across windows, source+fec counts equal the distinct ids in that window."""
    for window_id in range(3):
        state = playback(window_id, packet_ids)
        distinct = {p for p in packet_ids if PAPER.window_of(p) == window_id}
        assert state.on_time_total == len(distinct)


def test_window_state_dataclass_repr():
    state = WindowPlayback(window_id=1, on_time_source=3, on_time_fec=1,
                           needed=5, source_per_window=5)
    assert "window_id=1" in repr(state)
    assert state.on_time_total == 4
    assert state.jittered
