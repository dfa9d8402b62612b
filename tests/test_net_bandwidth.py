"""Unit tests for the uplink serialization queue."""

import pytest

from repro.net.bandwidth import UplinkQueue


def test_serialization_time_matches_capacity():
    # An idle link holds S bytes for S * 8 / capacity seconds:
    # 1000 bytes at 8000 bps -> 1 second, 250 bytes at 1 Mbps -> 2 ms.
    assert UplinkQueue(8000.0).enqueue(3.0, 1000) == pytest.approx(4.0)
    assert UplinkQueue(1e6).enqueue(3.0, 250) == pytest.approx(3.002)


def test_single_datagram_exits_after_serialization():
    link = UplinkQueue(8000.0)
    exit_time = link.enqueue(now=10.0, size_bytes=1000)
    assert exit_time == pytest.approx(11.0)
    assert link.busy_until == pytest.approx(11.0)


def test_back_to_back_datagrams_queue_fifo():
    link = UplinkQueue(8000.0)
    first = link.enqueue(0.0, 1000)
    second = link.enqueue(0.0, 1000)
    third = link.enqueue(0.0, 500)
    assert first == pytest.approx(1.0)
    assert second == pytest.approx(2.0)
    assert third == pytest.approx(2.5)


def test_idle_link_does_not_accumulate_credit():
    link = UplinkQueue(8000.0)
    link.enqueue(0.0, 1000)  # busy until 1.0
    exit_time = link.enqueue(5.0, 1000)  # link idle 1.0 - 5.0
    assert exit_time == pytest.approx(6.0)


def test_queue_delay_reflects_backlog():
    # A datagram enqueued behind a backlog waits out what remains of it.
    link = UplinkQueue(8000.0)
    assert link.enqueue(0.0, 2000) == pytest.approx(2.0)  # no wait
    assert link.enqueue(1.5, 1000) == pytest.approx(3.0)  # waits 0.5
    assert link.enqueue(4.0, 1000) == pytest.approx(5.0)  # backlog gone


def test_overload_grows_queue_without_bound():
    # Offered load 2x capacity: backlog after k packets grows linearly.
    link = UplinkQueue(8000.0)
    for i in range(10):
        arrival = i * 0.5  # each takes 1s, arrive every 0.5s
        exit_time = link.enqueue(arrival, 1000)
        assert exit_time - 1.0 - arrival == pytest.approx(i * 0.5)
    assert link.enqueue(5.0, 1000) == pytest.approx(11.0)  # waits 5s


def test_max_delay_drops_excess():
    link = UplinkQueue(8000.0, max_delay=1.5)
    assert link.enqueue(0.0, 1000) is not None  # wait 0
    assert link.enqueue(0.0, 1000) is not None  # wait 1.0
    assert link.enqueue(0.0, 1000) is None      # wait 2.0 > 1.5 -> dropped
    assert link.datagrams_dropped == 1
    assert link.datagrams_sent == 2


def test_byte_and_datagram_accounting():
    link = UplinkQueue(8000.0)
    link.enqueue(0.0, 300)
    link.enqueue(0.0, 700)
    assert link.bytes_sent == 1000
    assert link.datagrams_sent == 2


def test_utilization():
    link = UplinkQueue(8000.0)
    link.enqueue(0.0, 1000)  # 1 second of wire time
    assert link.utilization(elapsed=4.0) == pytest.approx(0.25)
    assert link.utilization(elapsed=0.0) == 0.0


def test_utilization_clamped_to_one():
    link = UplinkQueue(8000.0)
    for _ in range(10):
        link.enqueue(0.0, 1000)
    assert link.utilization(elapsed=1.0) == 1.0


def test_set_capacity_affects_future_datagrams():
    link = UplinkQueue(8000.0)
    first = link.enqueue(0.0, 1000)
    link.set_capacity(16000.0)
    second = link.enqueue(0.0, 1000)
    assert first == pytest.approx(1.0)
    assert second == pytest.approx(1.5)


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        UplinkQueue(0.0)
    with pytest.raises(ValueError):
        UplinkQueue(1000.0).set_capacity(-1.0)
    with pytest.raises(ValueError):
        UplinkQueue(1000.0, max_delay=-0.5)
