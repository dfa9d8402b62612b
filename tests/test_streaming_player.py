"""Tests for playback analysis (lag/jitter metrics)."""

import json
import math
from typing import Callable, List, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import AttackMix
from repro.experiments.runner import ExperimentResult, run_scenario
from repro.metrics.summary import standard_bundle, summarize
from repro.net.shard import run_sharded
from repro.streaming.packets import StreamConfig
from repro.streaming.player import OFFLINE, PlaybackAnalyzer, WindowPlayback
from repro.streaming.receiver import ReceiverLog
from repro.workloads.churn import CatastrophicFailure
from repro.workloads.distributions import MS_691, REF_691
from repro.workloads.scenario import ScenarioConfig

# A small window geometry keeps the arithmetic followable:
# 4 source + 2 FEC per window, need 4 of 6 to decode.
CONFIG = StreamConfig(source_packets_per_window=4, fec_packets_per_window=2,
                      packet_size_bytes=100, effective_rate_bps=80_000.0)
INTERVAL = CONFIG.packet_interval  # 0.01 s


def publish_time(packet_id):
    return packet_id * INTERVAL


def analyzer():
    return PlaybackAnalyzer(CONFIG, publish_time)


def log_with_delays(delays):
    """Build a log where packet i arrives `delays[i]` after publish (None = lost)."""
    log = ReceiverLog(0)
    for packet_id, delay in enumerate(delays):
        if delay is not None:
            log.record(packet_id, publish_time(packet_id) + delay)
    return log


class TestWindowPlayback:
    def test_all_on_time_decodes(self):
        log = log_with_delays([0.1] * 6)
        wp = analyzer().window_playback(log, 0, lag=0.2)
        assert wp.decodable
        assert wp.on_time_source == 4
        assert wp.on_time_fec == 2
        assert wp.delivery_ratio == 1.0

    def test_late_packets_excluded_at_small_lag(self):
        log = log_with_delays([0.1, 0.1, 0.1, 5.0, 0.1, 0.1])
        wp = analyzer().window_playback(log, 0, lag=1.0)
        assert wp.on_time_source == 3
        assert wp.on_time_fec == 2
        assert wp.decodable  # 5 of 6 >= 4

    def test_jittered_window_viewable_is_source_only(self):
        # Only 2 source + 1 FEC on time -> 3 < 4, jittered.
        log = log_with_delays([0.1, 0.1, None, None, 0.1, None])
        wp = analyzer().window_playback(log, 0, lag=1.0)
        assert wp.jittered
        assert wp.viewable_source_packets == 2
        assert wp.delivery_ratio == 0.5

    def test_exact_lag_boundary_counts_as_on_time(self):
        log = log_with_delays([1.0, None, None, None, None, None])
        wp = analyzer().window_playback(log, 0, lag=1.0)
        assert wp.on_time_source == 1


class TestAggregateMetrics:
    def test_jitter_fraction(self):
        # Window 0 complete, window 1 empty.
        delays = [0.1] * 6 + [None] * 6
        log = log_with_delays(delays)
        a = analyzer()
        assert a.jitter_fraction(log, [0, 1], lag=1.0) == 0.5
        assert a.jitter_free_fraction(log, [0, 1], lag=1.0) == 0.5

    def test_jitter_fraction_empty_windows_list(self):
        assert analyzer().jitter_fraction(ReceiverLog(0), [], 1.0) == 0.0

    def test_mean_jittered_delivery_ratio(self):
        # Window 0 decodes; window 1 gets 2 of 4 source packets (ratio 0.5);
        # window 2 gets 1 source packet (ratio 0.25).
        delays = ([0.1] * 6
                  + [0.1, 0.1, None, None, None, None]
                  + [0.1, None, None, None, None, None])
        log = log_with_delays(delays)
        ratio = analyzer().mean_jittered_delivery_ratio(log, [0, 1, 2], lag=1.0)
        assert ratio == pytest.approx((0.5 + 0.25) / 2)

    def test_mean_jittered_delivery_ratio_no_jitter(self):
        log = log_with_delays([0.1] * 6)
        assert analyzer().mean_jittered_delivery_ratio(log, [0], lag=1.0) == 1.0


class TestInverseQueries:
    def test_window_required_lag_is_kth_delay(self):
        # Delays 0.1..0.6; decoding needs 4 packets -> lag = 4th smallest = 0.4.
        log = log_with_delays([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        assert analyzer().window_required_lag(log, 0) == pytest.approx(0.4)

    def test_window_required_lag_undecodable(self):
        log = log_with_delays([0.1, 0.1, 0.1, None, None, None])
        assert analyzer().window_required_lag(log, 0) == OFFLINE

    def test_min_lag_jitter_free_takes_worst_window(self):
        delays = [0.1] * 6 + [2.0] * 6
        log = log_with_delays(delays)
        assert analyzer().min_lag_jitter_free(log, [0, 1]) == pytest.approx(2.0)

    def test_min_lag_jitter_free_empty(self):
        assert analyzer().min_lag_jitter_free(ReceiverLog(0), []) == 0.0

    def test_min_lag_max_jitter_allows_worst_windows(self):
        # 10 windows, 9 decodable at 0.5, one only offline.
        delays = []
        for w in range(9):
            delays += [0.5] * 6
        delays += [None] * 6
        log = log_with_delays(delays)
        a = analyzer()
        assert a.min_lag_jitter_free(log, range(10)) == OFFLINE
        assert a.min_lag_max_jitter(log, range(10), max_jitter=0.1) == pytest.approx(0.5)

    def test_min_lag_max_jitter_zero_equals_jitter_free(self):
        delays = [0.3] * 6 + [0.9] * 6
        log = log_with_delays(delays)
        a = analyzer()
        assert (a.min_lag_max_jitter(log, [0, 1], 0.0)
                == a.min_lag_jitter_free(log, [0, 1]))

    def test_min_lag_max_jitter_validates_range(self):
        with pytest.raises(ValueError):
            analyzer().min_lag_max_jitter(ReceiverLog(0), [0], 1.5)

    def test_min_lag_max_jitter_is_zero_when_every_window_may_jitter(self):
        # Window 0 decodes at 0.5, window 1 never does.  At lag 0 every
        # window may jitter, so max_jitter=1.0 asks for nothing.
        log = log_with_delays([0.5] * 6 + [None] * 6)
        a = analyzer()
        assert a.min_lag_max_jitter(log, [0, 1], 0.5) == pytest.approx(0.5)
        assert a.min_lag_max_jitter(log, [0, 1], 1.0) == 0.0

    def test_min_lag_delivery_ratio(self):
        # 12 packets total, delays increasing; 99% of 12 -> 12 packets needed.
        delays = [0.1 * (i + 1) for i in range(12)]
        log = log_with_delays(delays)
        lag = analyzer().min_lag_delivery_ratio(log, total_packets=12, ratio=0.99)
        assert lag == pytest.approx(1.2)
        # Half the stream suffices at lag 0.6.
        assert analyzer().min_lag_delivery_ratio(log, 12, 0.5) == pytest.approx(0.6)

    def test_min_lag_delivery_ratio_insufficient(self):
        log = log_with_delays([0.1, 0.1, None, None, None, None])
        assert analyzer().min_lag_delivery_ratio(log, 6, 0.99) == OFFLINE

    def test_min_lag_delivery_ratio_validates(self):
        with pytest.raises(ValueError):
            analyzer().min_lag_delivery_ratio(ReceiverLog(0), 10, 0.0)


@given(st.lists(st.one_of(st.none(), st.floats(min_value=0.0, max_value=10.0)),
                min_size=6, max_size=6))
def test_property_jitter_monotone_in_lag(delays):
    """Increasing the lag never makes a decodable window jittered."""
    log = log_with_delays(delays)
    a = analyzer()
    small = a.window_playback(log, 0, lag=1.0)
    large = a.window_playback(log, 0, lag=5.0)
    assert large.on_time_total >= small.on_time_total
    if small.decodable:
        assert large.decodable


@given(st.lists(st.one_of(st.none(), st.floats(min_value=0.0, max_value=10.0)),
                min_size=6, max_size=6))
def test_property_required_lag_consistent_with_playback(delays):
    """At exactly the required lag the window decodes; just below, it does not."""
    log = log_with_delays(delays)
    a = analyzer()
    required = a.window_required_lag(log, 0)
    if required is OFFLINE or math.isinf(required):
        assert not a.window_playback(log, 0, lag=1e9).decodable
    else:
        assert a.window_playback(log, 0, lag=required).decodable
        if required > 1e-9:
            assert not a.window_playback(log, 0, lag=required * 0.999 - 1e-9).decodable


@given(st.lists(st.one_of(st.none(), st.floats(min_value=0.0, max_value=10.0)),
                min_size=6, max_size=24),
       st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8))
def test_property_min_lag_max_jitter_bounds(delays, max_jitters):
    """Allowing more jitter never needs more lag; no allowance is the
    jitter-free lag, and a full allowance needs none."""
    log = log_with_delays(delays)
    windows = range(len(delays) // CONFIG.packets_per_window)
    a = analyzer()
    lags = [a.min_lag_max_jitter(log, windows, m)
            for m in sorted([0.0, *max_jitters, 1.0])]
    assert all(later <= earlier for earlier, later in zip(lags, lags[1:]))
    assert lags[0] == a.min_lag_jitter_free(log, windows)
    assert lags[-1] == 0.0


# ----------------------------------------------------------------------
# The memoized analyzer against the unmemoized one it replaced
# ----------------------------------------------------------------------
class _RefAnalyzer:
    """The analyzer before it memoized anything, kept verbatim (only
    ``WindowPlayback`` is shared): every answer is read from the log."""

    def __init__(self, config: StreamConfig, publish_time: Callable[[int], float]):
        self.config = config
        self._publish_time = publish_time

    # ------------------------------------------------------------------
    # forward queries: behaviour at a given lag
    # ------------------------------------------------------------------
    def window_playback(self, log: ReceiverLog, window_id: int, lag: float) -> WindowPlayback:
        config = self.config
        on_time_source = 0
        on_time_fec = 0
        start = window_id * config.packets_per_window
        for packet_id in range(start, start + config.packets_per_window):
            delivered = log.delivery_time(packet_id)
            if delivered is None:
                continue
            if delivered <= self._publish_time(packet_id) + lag:
                if config.is_fec(packet_id):
                    on_time_fec += 1
                else:
                    on_time_source += 1
        return WindowPlayback(
            window_id=window_id,
            on_time_source=on_time_source,
            on_time_fec=on_time_fec,
            needed=config.source_packets_per_window,
            source_per_window=config.source_packets_per_window,
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
        config = self.config
        start = window_id * config.packets_per_window
        delays = []
        for packet_id in range(start, start + config.packets_per_window):
            delivered = log.delivery_time(packet_id)
            if delivered is not None:
                delays.append(delivered - self._publish_time(packet_id))
        needed = config.source_packets_per_window
        if len(delays) < needed:
            return OFFLINE
        delays.sort()
        return max(0.0, delays[needed - 1])

    def min_lag_jitter_free(self, log: ReceiverLog, windows: Sequence[int]) -> float:
        """Smallest lag at which *every* window decodes (Figs. 8, 9 'no jitter')."""
        if not windows:
            return 0.0
        return max(self.window_required_lag(log, w) for w in windows)

    def min_lag_max_jitter(self, log: ReceiverLog, windows: Sequence[int],
                           max_jitter: float) -> float:
        """Smallest lag at which the jittered fraction is <= ``max_jitter``
        (Fig. 9 'max 1% jitter' uses max_jitter=0.01)."""
        if not windows:
            return 0.0
        if not 0.0 <= max_jitter <= 1.0:
            raise ValueError(f"max_jitter must be in [0, 1], got {max_jitter!r}")
        required = sorted(self.window_required_lag(log, w) for w in windows)
        allowed_jittered = math.floor(max_jitter * len(required))
        index = len(required) - 1 - allowed_jittered
        return required[index]

    def min_lag_delivery_ratio(self, log: ReceiverLog, total_packets: int,
                               ratio: float) -> float:
        """Smallest lag at which the node has received ``ratio`` of all
        published packets on time (Fig. 1's '99% delivery' curves)."""
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {ratio!r}")
        needed = math.ceil(ratio * total_packets)
        delays = sorted(delivered - self._publish_time(packet_id)
                        for packet_id, delivered in log.items())
        if len(delays) < needed:
            return OFFLINE
        return max(0.0, delays[needed - 1])


WINDOWS = 3
PACKETS = WINDOWS * CONFIG.packets_per_window
#: A few exact values (so delays tie, and a lag can equal a delay to the
#: bit) next to arbitrary ones.
SHARED_VALUES = [0.0, 0.01, 0.05, 0.1, 0.5, 1.0]
DELAY = st.one_of(st.sampled_from(SHARED_VALUES),
                  st.floats(min_value=0.0, max_value=3.0))
LAG = st.one_of(st.sampled_from(SHARED_VALUES + [OFFLINE]),
                st.floats(min_value=0.0, max_value=3.0))
#: A delivery into one of two logs: any packet of any window, source or
#: FEC slot; a packet recorded twice is a duplicate the log ignores.
RECORD = st.tuples(st.just("record"), st.integers(0, 1),
                   st.integers(0, PACKETS - 1), DELAY)
QUERY = st.tuples(
    st.just("query"), st.integers(0, 1),
    st.sampled_from(["window_playback", "window_required_lag",
                     "jitter_fraction", "mean_jittered_delivery_ratio",
                     "min_lag_jitter_free", "min_lag_max_jitter",
                     "min_lag_delivery_ratio"]),
    st.integers(0, WINDOWS - 1), LAG,
    # The reference answered max_jitter=1.0 wrongly (see the bugfix test).
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.floats(min_value=0.01, max_value=1.0))


def _ask(a, log, query):
    _op, _log, method, window, lag, max_jitter, ratio = query
    windows = range(window + 1)
    if method == "window_playback":
        return a.window_playback(log, window, lag)
    if method == "window_required_lag":
        return a.window_required_lag(log, window)
    if method in ("jitter_fraction", "mean_jittered_delivery_ratio"):
        return getattr(a, method)(log, windows, lag)
    if method == "min_lag_jitter_free":
        return a.min_lag_jitter_free(log, windows)
    if method == "min_lag_max_jitter":
        return a.min_lag_max_jitter(log, windows, max_jitter)
    return a.min_lag_delivery_ratio(log, PACKETS, ratio)


@settings(max_examples=300)
@given(st.lists(st.one_of(RECORD, QUERY), max_size=60))
def test_property_memoized_answers_equal_a_fresh_reference(steps):
    """One analyzer answers queries while its logs keep growing: every
    answer equals a fresh unmemoized analyzer's on the log as it is."""
    logs = [ReceiverLog(0), ReceiverLog(1)]
    memoized = analyzer()
    for step in steps:
        log = logs[step[1]]
        if step[0] == "record":
            _op, _log, packet_id, delay = step
            log.record(packet_id, publish_time(packet_id) + delay)
            continue
        reference = _RefAnalyzer(CONFIG, publish_time)
        assert _ask(memoized, log, step) == _ask(reference, log, step)


def test_a_log_that_grew_is_read_again():
    log = log_with_delays([0.1, 0.1, 0.1, None, None, None])
    a = analyzer()
    assert a.window_required_lag(log, 0) == OFFLINE
    assert a.window_playback(log, 0, lag=1.0).jittered
    log.record(3, publish_time(3) + 0.2)
    assert a.window_required_lag(log, 0) == pytest.approx(0.2)
    assert a.window_playback(log, 0, lag=1.0).decodable


def test_on_time_counts_are_per_lag():
    log = log_with_delays([0.1, 0.1, 0.1, 2.0, 0.1, 2.0])
    a = analyzer()
    assert a.window_playback(log, 0, lag=1.0).on_time_total == 4
    assert a.window_playback(log, 0, lag=OFFLINE).on_time_total == 6
    assert a.window_playback(log, 0, lag=0.0).on_time_total == 0


def test_a_result_has_one_analyzer():
    result = run_scenario(ScenarioConfig(n_nodes=10, duration=2.0, drain=2.0,
                                         distribution=REF_691))
    assert result.analyzer() is result.analyzer()


SUMMARY_SCENARIOS = {
    "heap": dict(protocol="heap"),
    "standard": dict(protocol="standard"),
    "tree": dict(protocol="tree"),
    "combined": dict(
        protocol="heap", distribution=MS_691, membership="cyclon",
        loss_rate=0.03, loss_rng="per-pair", latency_rng="per-pair",
        audit=True, churn=CatastrophicFailure(0.2, at_time=3.0),
        adversary=AttackMix.single("spam", 0.1, victim_policy="high-degree")),
    "shards2": dict(protocol="heap", latency_rng="per-pair",
                    latency_floor=0.05, shards=2),
}


@pytest.mark.parametrize("scenario", sorted(SUMMARY_SCENARIOS))
def test_standard_bundle_equals_the_reference(scenario, monkeypatch):
    """The standard bundle's JSON is the unmemoized analyzer's, byte for
    byte — serial runs of every protocol, every adverse mechanism at
    once, and a merged 2-shard result."""
    config = ScenarioConfig(**{"n_nodes": 40, "duration": 4.0, "drain": 3.0,
                               "seed": 11, "distribution": REF_691,
                               **SUMMARY_SCENARIOS[scenario]})
    result = (run_sharded(config, processes=False) if config.shards > 1
              else run_scenario(config))
    assert len(result.windows()) >= 2
    memoized = json.dumps(summarize(result, standard_bundle()), sort_keys=True)
    monkeypatch.setattr(ExperimentResult, "analyzer", lambda self: _RefAnalyzer(
        self.config.stream, self.publish_times.__getitem__))
    reference = json.dumps(summarize(result, standard_bundle()), sort_keys=True)
    assert memoized == reference
