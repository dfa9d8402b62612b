"""Parity and resume tests for the figure/table grid pipeline.

The acceptance contract of the parallel reproduction pipeline:

* figure/table data files are **byte-identical** between ``--jobs 1``
  and ``--jobs N`` (the pool is forced via an explicit start method so
  the test is honest on 1-CPU hosts);
* a figure that re-requests a (scenario, seed) another figure already
  computed reuses the summary or the cached full result — never a
  recomputation in the same process;
* an interrupted figure run resumes from its JSONL checkpoint without
  recomputing finished cells.
"""

import json

import pytest

from repro.experiments import parallel
from repro.experiments.ablations import ablation_source_bias
from repro.experiments.figures import fig4_bandwidth_usage, fig5_quality_ref691, fig7_jitter_cdf
from repro.experiments.gridrun import clear_summary_cache, grid_summaries
from repro.experiments.scales import Scale, scenario_at
from repro.experiments.tables import table3_jitter_free_nodes
from repro.metrics.export import write_result_csv
from repro.metrics.jitter import spec_jitter_free_fraction_by_class
from repro.metrics.lag import spec_lag_delivery
from repro.workloads.distributions import REF_691

TINY = Scale("tiny", 20, 4.0, 10.0)


@pytest.fixture(autouse=True)
def fresh_state():
    """Every test starts with empty caches."""
    clear_summary_cache()
    yield
    clear_summary_cache()


def _count_runs(monkeypatch):
    calls = []
    real = parallel.run_scenario

    def wrapper(config):
        calls.append(config.protocol)
        return real(config)

    monkeypatch.setattr(parallel, "run_scenario", wrapper)
    return calls


class TestSerialParallelParity:
    def test_grid_summaries_identical_serial_vs_forced_pool(self):
        spec = spec_lag_delivery(0.99)
        cells = [(scenario_at(TINY, protocol=p, distribution=REF_691), (spec,))
                 for p in ("heap", "standard")]
        serial = grid_summaries(cells, jobs=1)
        clear_summary_cache()
        pooled = grid_summaries(cells, jobs=4, start_method="fork")
        assert (json.dumps(serial, sort_keys=True)
                == json.dumps(pooled, sort_keys=True))

    def test_figure_data_file_byte_identical(self, tmp_path):
        serial_fig = fig5_quality_ref691(TINY)
        serial_csv = tmp_path / "serial.csv"
        write_result_csv(str(serial_csv), serial_fig)

        clear_summary_cache()
        parallel_fig = fig5_quality_ref691(TINY, jobs=4, start_method="fork")
        parallel_csv = tmp_path / "parallel.csv"
        write_result_csv(str(parallel_csv), parallel_fig)

        assert serial_fig.render() == parallel_fig.render()
        assert serial_csv.read_bytes() == parallel_csv.read_bytes()

    def test_table_render_byte_identical(self):
        serial = table3_jitter_free_nodes(TINY).render()
        clear_summary_cache()
        parallel = table3_jitter_free_nodes(TINY, jobs=2,
                                            start_method="fork").render()
        assert serial == parallel

    def test_ablation_render_byte_identical(self):
        serial = ablation_source_bias(TINY, biases=(0.0, 1.0)).render()
        clear_summary_cache()
        parallel = ablation_source_bias(TINY, biases=(0.0, 1.0), jobs=2,
                                        start_method="fork").render()
        assert serial == parallel


class TestSummaryCoherence:
    def test_figures_share_runs_in_one_process(self, monkeypatch):
        calls = _count_runs(monkeypatch)
        fig5_quality_ref691(TINY)
        first = len(calls)
        assert first == 2  # standard + heap on ref-691
        # Different reductions of the *same* runs: the standard bundle
        # the runs computed answers them without a new scenario run.
        fig7_jitter_cdf(TINY)
        assert len(calls) == first
        # Same reductions again: pure summary-cache hits.
        fig5_quality_ref691(TINY)
        assert len(calls) == first

    def test_standard_bundle_enables_cross_figure_reuse_under_pool(self):
        """At --jobs N workers ship summaries, never full results; the
        predeclared standard bundle makes a later figure's different
        reductions of the same scenario pure cache hits anyway.

        Executed cells are counted through the progress callback (worker
        runs are invisible to in-process monkeypatching)."""
        from repro.metrics.bandwidth import spec_utilization_by_class

        configs = [scenario_at(TINY, protocol=p, distribution=REF_691)
                   for p in ("heap", "standard")]
        first_spec = spec_lag_delivery(0.99)
        executed = []
        progress = lambda event: executed.append(event.record)  # noqa: E731
        grid_summaries([(c, (first_spec,)) for c in configs], jobs=2,
                       start_method="fork", progress=progress)
        assert len(executed) == 2
        other_spec = spec_utilization_by_class()
        summaries = grid_summaries([(c, (other_spec,)) for c in configs],
                                   jobs=2, start_method="fork",
                                   progress=progress)
        assert len(executed) == 2  # no re-run: the bundle pre-computed it
        assert all(other_spec.name in summary for summary in summaries)

    def test_summary_cache_survives_without_full_results(self, monkeypatch):
        spec = spec_jitter_free_fraction_by_class(10.0)
        cells = [(scenario_at(TINY, protocol="heap",
                              distribution=REF_691), (spec,))]
        grid_summaries(cells)
        # No full result outlived the first call: the summaries alone
        # answer the second.
        calls = _count_runs(monkeypatch)
        (summary,) = grid_summaries(cells)
        assert calls == []
        assert spec.name in summary


class TestFigureCheckpointResume:
    def test_interrupted_figure_resumes_from_checkpoint(self, tmp_path,
                                                        monkeypatch):
        grid = dict(checkpoint=str(tmp_path / "fig4.jsonl"), resume=True)
        reference = fig4_bandwidth_usage(TINY, **grid)
        lines = (tmp_path / "fig4.jsonl").read_text().splitlines()
        assert len(lines) == 1 + 4  # header + one record per scenario

        # Kill after two finished cells, then resume in a "new process"
        # (cold caches).
        (tmp_path / "fig4.jsonl").write_text("\n".join(lines[:3]) + "\n")
        clear_summary_cache()
        calls = _count_runs(monkeypatch)
        resumed = fig4_bandwidth_usage(TINY, **grid)
        assert len(calls) == 2  # only the missing cells ran
        assert resumed.render() == reference.render()

    def test_resume_across_processes_is_fingerprint_stable(self, tmp_path):
        # The same figure twice with cold caches must accept its own
        # checkpoint (the grid fingerprint is a pure function of the
        # cells, not of what an earlier process had cached).
        grid = dict(checkpoint=str(tmp_path / "fig5.jsonl"), resume=True)
        first = fig5_quality_ref691(TINY, **grid)
        clear_summary_cache()
        again = fig5_quality_ref691(TINY, **grid)
        assert first.render() == again.render()
