"""Tests for the stream source and receiver log."""

import math
import pickle

import pytest

from repro.sim.engine import Simulator
from repro.streaming.packets import StreamConfig
from repro.streaming.receiver import ReceiverLog
from repro.streaming.source import StreamSource


class TestStreamSource:
    def test_publishes_at_configured_rate(self):
        sim = Simulator()
        config = StreamConfig()
        published = []
        source = StreamSource(sim, config, published.append, total_packets=20)
        source.start()
        sim.run()
        assert len(published) == 20
        assert source.finished
        gaps = [published[i + 1].publish_time - published[i].publish_time
                for i in range(19)]
        assert all(g == pytest.approx(config.packet_interval) for g in gaps)

    def test_packet_ids_sequential_and_windows_assigned(self):
        sim = Simulator()
        config = StreamConfig(source_packets_per_window=3, fec_packets_per_window=1)
        published = []
        source = StreamSource(sim, config, published.append, total_packets=8)
        source.start()
        sim.run()
        assert [p.packet_id for p in published] == list(range(8))
        assert [p.window_id for p in published] == [0, 0, 0, 0, 1, 1, 1, 1]
        assert [p.is_fec for p in published] == [False, False, False, True] * 2

    def test_start_delay(self):
        sim = Simulator()
        published = []
        source = StreamSource(sim, StreamConfig(), published.append, total_packets=1)
        source.start(delay=5.0)
        sim.run()
        assert published[0].publish_time == 5.0

    def test_stop_halts_emission(self):
        sim = Simulator()
        published = []
        source = StreamSource(sim, StreamConfig(), published.append, total_packets=1000)
        source.start()
        sim.schedule(0.1, source.stop)
        sim.run()
        assert 0 < len(published) < 1000

    def test_unbounded_source_runs_until_horizon(self):
        sim = Simulator()
        published = []
        source = StreamSource(sim, StreamConfig(), published.append)
        source.start()
        sim.run(until=1.0)
        source.stop()
        expected = int(1.0 / StreamConfig().packet_interval) + 1
        assert len(published) == expected

    def test_double_start_rejected(self):
        sim = Simulator()
        source = StreamSource(sim, StreamConfig(), lambda p: None, total_packets=5)
        source.start()
        with pytest.raises(RuntimeError):
            source.start()

    def test_packet_size_follows_config(self):
        sim = Simulator()
        config = StreamConfig(packet_size_bytes=500)
        published = []
        source = StreamSource(sim, config, published.append, total_packets=1)
        source.start()
        sim.run()
        assert published[0].size_bytes == 500


class TestReceiverLog:
    def test_records_first_delivery(self):
        log = ReceiverLog(7)
        assert log.record(0, 1.5)
        assert log.delivery_time(0) == 1.5
        assert log.has(0)
        assert len(log) == 1

    def test_duplicate_detection(self):
        log = ReceiverLog(7)
        log.record(0, 1.0)
        assert not log.record(0, 2.0)
        assert log.duplicates == 1
        assert log.delivery_time(0) == 1.0  # first delivery wins

    def test_missing_packet(self):
        log = ReceiverLog(7)
        assert log.delivery_time(3) is None
        assert not log.has(3)

    def test_delivery_ratio(self):
        log = ReceiverLog(7)
        for i in range(50):
            log.record(i, float(i))
        assert log.delivery_ratio(100) == 0.5
        assert log.delivery_ratio(0) == 1.0

    def test_items_iteration(self):
        log = ReceiverLog(7)
        log.record(3, 1.0)
        log.record(5, 2.0)
        assert dict(log.items()) == {3: 1.0, 5: 2.0}


class TestDenseReceiverLog:
    """The log is an array indexed by packet id; these pin its edges."""

    def test_negative_id_is_refused(self):
        log = ReceiverLog(7)
        log.record(3, 1.0)
        with pytest.raises(ValueError):
            log.record(-1, 2.0)
        assert len(log) == 1
        assert not log.has(-1)
        assert log.delivery_time(-1) is None

    def test_ids_past_the_stored_range_read_as_missing(self):
        log = ReceiverLog(7)
        log.record(2, 1.0)
        assert log.delivery_time(3) is None
        assert log.delivery_time(10**9) is None
        assert not log.has(3) and not log.has(10**9)
        inf = math.inf
        assert log.delivery_times(0, 5) == [inf, inf, 1.0, inf, inf]
        assert log.delivery_times(10, 12) == [inf, inf]
        assert log.delivery_times(4, 4) == []

    def test_duplicates_are_counted(self):
        log = ReceiverLog(7)
        assert log.record(9, 1.0)
        assert not log.record(9, 2.0)
        assert not log.record(9, 3.0)
        assert log.record(4, 4.0)  # a slot below the largest id: not a dup
        assert log.duplicates == 2
        assert len(log) == 2
        assert log.delivery_time(9) == 1.0

    def test_items_yield_ids_ascending(self):
        log = ReceiverLog(7)
        for packet_id, time in ((9, 1.0), (3, 2.0), (5, 3.0), (0, 4.0)):
            log.record(packet_id, time)
        assert list(log.items()) == [(0, 4.0), (3, 2.0), (5, 3.0), (9, 1.0)]

    def test_delays_cover_the_shorter_of_log_and_publish_times(self):
        log = ReceiverLog(7)
        log.record(0, 1.5)
        log.record(2, 3.0)
        assert log.delays([1.0, 1.0, 1.0, 1.0]) == [0.5, math.inf, 2.0]
        assert log.delays([1.0, 1.0]) == [0.5, math.inf]

    def test_pickle_round_trip(self):
        # Shard workers send their logs to the parent pickled.
        log = ReceiverLog(7)
        for packet_id in (1, 4, 11):
            log.record(packet_id, packet_id / 10)
        log.record(4, 9.0)
        copy = pickle.loads(pickle.dumps(log))
        assert copy.node_id == 7
        assert list(copy.items()) == list(log.items())
        assert (len(copy), copy.duplicates) == (3, 1)
        assert copy.delivery_times(0, 25) == log.delivery_times(0, 25)
        assert copy.record(30, 1.0) and not copy.record(11, 1.0)
