"""Tests for the metrics layer, on a shared small experiment run."""

import math

import pytest

from repro import ScenarioConfig, run_scenario
from repro.analysis.cdf import Cdf
from repro.metrics import (
    ascii_table,
    cdf_row,
    format_percent,
    jitter_free_fraction_by_class,
    jitter_free_node_percentage_by_class,
    lag_cdf_delivery_ratio,
    lag_cdf_jitter_free,
    mean_jittered_delivery_by_class,
    mean_lag_by_class,
    per_node_lag_jitter_free,
    per_node_lag_max_jitter,
    utilization_by_class,
    window_delivery_over_time,
)
from repro.metrics.jitter import jitter_values
from repro.metrics.lag import lag_values_max_jitter
from repro.metrics.report import format_seconds
from repro.workloads import REF_691


@pytest.fixture(scope="module")
def result():
    return run_scenario(ScenarioConfig(
        protocol="heap", distribution=REF_691,
        n_nodes=35, duration=8.0, drain=15.0, seed=13))


class TestLagMetrics:
    def test_per_node_lag_covers_all_receivers(self, result):
        lags = per_node_lag_jitter_free(result)
        assert set(lags) == set(result.receiver_ids())
        assert all(lag >= 0 for lag in lags.values())

    def test_max_jitter_lag_never_exceeds_jitter_free(self, result):
        strict = per_node_lag_jitter_free(result)
        relaxed = per_node_lag_max_jitter(result, 0.2)
        for node_id in strict:
            assert relaxed[node_id] <= strict[node_id]

    def test_lag_cdfs_are_consistent(self, result):
        strict = lag_cdf_jitter_free(result)
        relaxed = Cdf(lag_values_max_jitter(result, 0.2))
        for x in (0.5, 1.0, 5.0, 20.0):
            assert relaxed.fraction_at(x) >= strict.fraction_at(x)

    def test_delivery_ratio_cdf(self, result):
        cdf = lag_cdf_delivery_ratio(result, ratio=0.99)
        assert len(cdf) == len(result.receiver_ids())
        assert cdf.fraction_at(60.0) > 0.9

    def test_mean_lag_by_class_has_all_classes(self, result):
        means = mean_lag_by_class(result)
        assert set(means) == {"256kbps", "768kbps", "2Mbps"}
        assert all(m >= 0 for m in means.values())

    def test_jitter_free_node_percentage(self, result):
        at_big_lag = jitter_free_node_percentage_by_class(result, 30.0)
        at_zero_lag = jitter_free_node_percentage_by_class(result, 0.0)
        for label in at_big_lag:
            assert at_big_lag[label] >= at_zero_lag[label]
            assert 0.0 <= at_big_lag[label] <= 100.0


class TestJitterMetrics:
    def test_jitter_free_fraction_monotone_in_lag(self, result):
        small = jitter_free_fraction_by_class(result, 0.5)
        large = jitter_free_fraction_by_class(result, 20.0)
        for label in small:
            assert large[label] >= small[label] - 1e-9

    def test_jitter_cdf_offline_near_zero_jitter(self, result):
        cdf = Cdf(jitter_values(result))  # offline
        assert cdf.fraction_at(0.0) == pytest.approx(1.0)

    def test_jittered_delivery_percent_range(self, result):
        table = mean_jittered_delivery_by_class(result, lag=0.5)
        for value in table.values():
            assert 0.0 <= value <= 100.0


class TestBandwidthMetrics:
    def test_utilization_in_range(self, result):
        util = utilization_by_class(result)
        for value in util.values():
            assert 0.0 <= value <= 100.0


class TestWindowsMetric:
    def test_series_covers_all_windows(self, result):
        series = window_delivery_over_time(result, lag=20.0)
        assert [w for w, _, _ in series] == list(result.windows())
        times = [t for _, t, _ in series]
        assert times == sorted(times)
        assert all(0.0 <= frac <= 100.0 for _, _, frac in series)

    def test_generous_lag_reaches_everyone(self, result):
        series = window_delivery_over_time(result, lag=30.0)
        assert all(frac == 100.0 for _, _, frac in series)


class TestReport:
    def test_format_percent(self):
        assert format_percent(12.345) == "12.3%"
        assert format_percent(float("nan")) == "n/a"

    def test_format_seconds(self):
        assert format_seconds(1.234) == "1.2s"
        assert format_seconds(math.inf) == "never"

    def test_ascii_table_alignment(self):
        table = ascii_table(["name", "value"], [["a", "1"], ["long-name", "22"]],
                            title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert len(lines) == 5
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows same width

    def test_cdf_row_samples_cdf(self):
        cdf = Cdf([1.0, 2.0, 3.0, 4.0])
        row = cdf_row("label", cdf, [2.0, 10.0])
        assert row == ["label", "50.0%", "100.0%"]
