"""Unit tests for stream configuration and packet model."""

import pytest

from repro.streaming.packets import StreamConfig, StreamPacket


def test_default_config_matches_paper():
    config = StreamConfig()
    assert config.packet_size_bytes == 1316
    assert config.source_packets_per_window == 101
    assert config.fec_packets_per_window == 9
    assert config.packets_per_window == 110
    # 600 kbps effective, 551 kbps of source data (the paper's numbers).
    assert config.effective_rate_bps == 600_000
    assert config.source_rate_bps == pytest.approx(551_000, rel=0.001)


def test_packet_interval():
    config = StreamConfig()
    # 1316 B * 8 / 600000 bps ~= 17.5 ms -> ~57 packets/s.
    assert config.packet_interval == pytest.approx(0.01755, abs=0.0001)
    assert 1.0 / config.packet_interval == pytest.approx(57.0, abs=0.2)


def test_window_duration_about_two_seconds():
    config = StreamConfig()
    assert config.window_duration == pytest.approx(1.93, abs=0.01)


def test_window_and_index_mapping():
    config = StreamConfig()
    assert config.window_of(0) == 0
    assert config.window_of(109) == 0
    assert config.window_of(110) == 1
    assert config.index_in_window(110) == 0
    assert config.index_in_window(219) == 109


def test_fec_classification():
    config = StreamConfig()
    # Indices 0..100 are source, 101..109 are FEC.
    assert not config.is_fec(0)
    assert not config.is_fec(100)
    assert config.is_fec(101)
    assert config.is_fec(109)
    assert not config.is_fec(110)  # first packet of window 1


def test_packets_for_duration_full_windows():
    config = StreamConfig()
    packets = config.packets_for_duration(60.0)
    assert packets % config.packets_per_window == 0
    assert packets == round(60.0 / config.window_duration) * 110


def test_packets_for_duration_minimum_one_window():
    config = StreamConfig()
    assert config.packets_for_duration(0.01) == 110


def test_validate_rejects_bad_configs():
    with pytest.raises(ValueError):
        StreamConfig(packet_size_bytes=0)
    with pytest.raises(ValueError):
        StreamConfig(source_packets_per_window=0)
    with pytest.raises(ValueError):
        StreamConfig(effective_rate_bps=0)
    with pytest.raises(ValueError):
        StreamConfig(fec_packets_per_window=-1)


def test_stream_packet_fields():
    packet = StreamPacket(packet_id=5, window_id=0, publish_time=1.5)
    assert packet.size_bytes == 1316
    assert not packet.is_fec


def test_stream_packet_rejects_negative_id():
    with pytest.raises(ValueError):
        StreamPacket(packet_id=-1, window_id=0, publish_time=0.0)
