"""Harness tests: figure/table definitions render and carry sane data.

Run at the quick scale — these validate structure and internal
consistency, not the paper's numbers (the benches assert those shapes
at the default/full scales).
"""

import pytest

from repro.experiments import scales
from repro.experiments.figures import (
    fig1_unconstrained,
    fig4_bandwidth_usage,
    fig5_quality_ref691,
    fig7_jitter_cdf,
    fig10_churn,
)
from repro.experiments.gridrun import run_plans
from repro.experiments.scales import QUICK, Scale, scenario_at
from repro.experiments.tables import (
    table1_distributions,
    table3_jitter_free_nodes,
)

TINY = Scale("tiny", 30, 6.0, 15.0)


class TestScales:
    def test_current_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        assert scales.current_scale() is QUICK
        monkeypatch.setenv("REPRO_FULL", "1")
        assert scales.current_scale().name == "full"

    def test_unknown_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "galactic")
        with pytest.raises(ValueError):
            scales.current_scale()

    def test_scenario_at_applies_overrides(self):
        config = scenario_at(TINY, protocol="standard", seed=9)
        assert config.n_nodes == 30
        assert config.seed == 9
        assert config.protocol == "standard"


class TestFigureDefinitions:
    def test_table1_static(self):
        table = table1_distributions()
        text = table.render()
        assert "ref-691" in text and "CSR" in text
        assert len(table.rows) == 3

    def test_fig1_structure(self):
        (fig,) = run_plans([fig1_unconstrained(TINY)])
        assert "Fig 1" in fig.render()
        assert 0.5 in fig.extra["percentiles"]
        assert len(fig.extra["cdf"]) == TINY.n_nodes - 1

    def test_fig4_covers_both_panels_and_protocols(self):
        (fig,) = run_plans([fig4_bandwidth_usage(TINY)])
        assert set(fig.extra["usage"]) == {
            ("4a", "standard"), ("4a", "heap"),
            ("4b", "standard"), ("4b", "heap")}

    def test_fig5_data_by_protocol_and_class(self):
        (fig,) = run_plans([fig5_quality_ref691(TINY)])
        data = fig.extra["data"]
        assert set(data) == {"standard", "heap"}
        assert set(data["heap"]) == {"256kbps", "768kbps", "2Mbps"}

    def test_fig7_has_four_series(self):
        (fig,) = run_plans([fig7_jitter_cdf(TINY)])
        assert len(fig.extra["cdfs"]) == 4
        assert len(fig.rows) == 4

    def test_fig10_churn_series(self):
        (fig,) = run_plans([fig10_churn(TINY, fraction=0.2)])
        series = fig.extra["series"]
        assert set(series) == {"heap - 12s lag", "standard - 20s lag",
                               "standard - 30s lag"}
        for points in series.values():
            assert all(0.0 <= frac <= 100.0 for _, _, frac in points)

    def test_table3_lags_follow_paper(self):
        (table,) = run_plans([table3_jitter_free_nodes(TINY)])
        text = table.render()
        assert "ms-691 (20s lag)" in text
        assert "ref-691 (10s lag)" in text
