"""Tests for CSV export and multi-seed aggregation."""

import csv
import math

import pytest

from repro import ScenarioConfig
from repro.analysis.cdf import Cdf
from repro.experiments.multi_seed import (
    AggregatedMetric,
    metric_jitter_free_10s,
    metric_mean_jitter_free_lag,
    metric_offline_delivery,
)
from repro.experiments.parallel import run_grid
from repro.metrics.export import (
    lag_grid_rows,
    write_cdf_csv,
    write_result_csv,
    write_rows_csv,
    write_series_csv,
)
from repro.workloads import REF_691


class TestCsvExport:
    def test_write_rows_roundtrip(self, tmp_path):
        path = tmp_path / "rows.csv"
        count = write_rows_csv(str(path), ["a", "b"], [[1, "x"], [2, "y"]])
        assert count == 2
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["a", "b"], ["1", "x"], ["2", "y"]]

    def test_write_result_csv(self, tmp_path):
        from repro.experiments.tables import table1_distributions
        path = tmp_path / "table1.csv"
        count = write_result_csv(str(path), table1_distributions())
        assert count == 3
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "name"
        assert rows[1][0] == "ref-691"

    def test_write_cdf_csv(self, tmp_path):
        path = tmp_path / "cdf.csv"
        cdfs = {"a": Cdf([1.0, 2.0, 3.0]), "b": Cdf([5.0, math.inf])}
        count = write_cdf_csv(str(path), cdfs)
        assert count == 4  # 3 finite + 1 finite (inf omitted)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        b_rows = [row for row in rows[1:] if row[0] == "b"]
        # b's single finite point saturates at 0.5 because of the inf.
        assert float(b_rows[-1][2]) == pytest.approx(0.5)

    def test_write_series_csv(self, tmp_path):
        path = tmp_path / "series.csv"
        series = {"heap": [(0, 2.0, 100.0), (1, 3.9, 80.0)]}
        count = write_series_csv(str(path), series)
        assert count == 2

    def test_lag_grid_rows(self):
        rows = lag_grid_rows({"x": Cdf([1.0, 3.0])}, grid=[0.5, 2.0, 5.0])
        assert rows == [["x", "0.0000", "0.5000", "1.0000"]]


class TestAggregatedMetric:
    def test_summary_statistics(self):
        metric = AggregatedMetric("m", [1.0, 2.0, 3.0])
        assert metric.mean == 2.0
        assert metric.min == 1.0
        assert metric.max == 3.0
        assert "over 3 seeds" in metric.summary()


class TestRunSeeds:
    @pytest.fixture(scope="class")
    def aggregated(self):
        config = ScenarioConfig(protocol="heap", distribution=REF_691,
                                n_nodes=25, duration=5.0, drain=12.0)
        return run_grid(config, (1, 2, 3), {
            "lag": metric_mean_jitter_free_lag,
            "delivery": metric_offline_delivery,
            "quality": metric_jitter_free_10s,
        }).aggregated_for(0)

    def test_all_metrics_aggregated(self, aggregated):
        assert set(aggregated) == {"lag", "delivery", "quality"}
        assert all(len(metric.values) == 3 for metric in aggregated.values())

    def test_values_plausible(self, aggregated):
        assert aggregated["delivery"].mean > 0.95
        assert 0 < aggregated["lag"].mean < 20.0
        assert aggregated["quality"].mean > 50.0

    def test_seeds_vary_results(self, aggregated):
        assert aggregated["lag"].stdev >= 0.0
        assert len(set(aggregated["lag"].values)) > 1

    def test_rejects_empty_seeds(self):
        with pytest.raises(ValueError):
            run_grid(ScenarioConfig(), (), {})
