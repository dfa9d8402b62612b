"""Parity and resume tests for the figure/table grid pipeline.

The acceptance contract of the parallel reproduction pipeline:

* figure/table data files are **byte-identical** between ``--jobs 1``
  and ``--jobs N`` (the pool is forced via an explicit start method so
  the test is honest on 1-CPU hosts);
* artifacts planned together share every scenario they have in common:
  one run per unique scenario, computing only the specs some plan reads;
* an interrupted figure run resumes from its JSONL checkpoint without
  recomputing finished cells.
"""

import json
import os

import pytest

from repro.experiments import parallel
from repro.experiments.ablations import ablation_source_bias
from repro.experiments.figures import fig4_bandwidth_usage, fig5_quality_ref691, fig7_jitter_cdf
from repro.experiments.gridrun import grid_summaries, run_plans
from repro.experiments.scales import Scale, scenario_at
from repro.experiments.tables import table3_jitter_free_nodes
from repro.metrics.export import write_result_csv
from repro.metrics.jitter import spec_jitter_free_fraction_by_class
from repro.metrics.lag import spec_lag_delivery
from repro.metrics.summary import MetricSpec
from repro.workloads.distributions import REF_691

TINY = Scale("tiny", 20, 4.0, 10.0)


def _count_runs(monkeypatch):
    calls = []
    real = parallel.run_scenario

    def wrapper(config):
        calls.append(config.protocol)
        return real(config)

    monkeypatch.setattr(parallel, "run_scenario", wrapper)
    return calls


def _exit_for_standard(result):
    """A summary whose worker dies on standard gossip's run (module
    level, so it pickles to a pool worker)."""
    if result.config.protocol == "standard":
        os._exit(3)
    return 0


class TestSerialParallelParity:
    def test_grid_summaries_identical_serial_vs_forced_pool(self):
        spec = spec_lag_delivery(0.99)
        cells = [(scenario_at(TINY, protocol=p, distribution=REF_691), (spec,))
                 for p in ("heap", "standard")]
        serial = grid_summaries(cells, jobs=1)
        pooled = grid_summaries(cells, jobs=4, start_method="fork")
        assert (json.dumps(serial, sort_keys=True)
                == json.dumps(pooled, sort_keys=True))

    def test_figure_data_file_byte_identical(self, tmp_path):
        (serial_fig,) = run_plans([fig5_quality_ref691(TINY)])
        serial_csv = tmp_path / "serial.csv"
        write_result_csv(str(serial_csv), serial_fig)

        (parallel_fig,) = run_plans([fig5_quality_ref691(TINY)], jobs=4,
                                    start_method="fork")
        parallel_csv = tmp_path / "parallel.csv"
        write_result_csv(str(parallel_csv), parallel_fig)

        assert serial_fig.render() == parallel_fig.render()
        assert serial_csv.read_bytes() == parallel_csv.read_bytes()

    def test_table_render_byte_identical(self):
        (serial,) = run_plans([table3_jitter_free_nodes(TINY)])
        (parallel,) = run_plans([table3_jitter_free_nodes(TINY)], jobs=2,
                                start_method="fork")
        assert serial.render() == parallel.render()

    def test_ablation_render_byte_identical(self):
        (serial,) = run_plans([ablation_source_bias(TINY, biases=(0.0, 1.0))])
        (parallel,) = run_plans([ablation_source_bias(TINY, biases=(0.0, 1.0))],
                                jobs=2, start_method="fork")
        assert serial.render() == parallel.render()


class TestSummaryCoherence:
    def test_figures_share_runs_in_one_process(self, monkeypatch):
        calls = _count_runs(monkeypatch)
        # Different reductions of the same two ref-691 runs, planned
        # together: one run per unique scenario.
        fig5, fig7 = run_plans([fig5_quality_ref691(TINY),
                                fig7_jitter_cdf(TINY)])
        assert sorted(calls) == ["heap", "standard"]
        (alone,) = run_plans([fig5_quality_ref691(TINY)])
        assert alone.render() == fig5.render()
        # A separate call shares nothing with the first.
        assert len(calls) == 4

    def test_planned_figures_share_runs_under_pool(self):
        """Executed cells are counted through the progress callback
        (worker runs are invisible to in-process monkeypatching)."""
        executed = []
        progress = lambda event: executed.append(event.record)  # noqa: E731
        fig5, fig7 = run_plans([fig5_quality_ref691(TINY),
                                fig7_jitter_cdf(TINY)],
                               jobs=2, start_method="fork", progress=progress)
        assert len(executed) == 2
        serial = run_plans([fig5_quality_ref691(TINY), fig7_jitter_cdf(TINY)])
        assert [fig.render() for fig in serial] == [fig5.render(),
                                                    fig7.render()]

    def test_quarantined_cell_raises_naming_scenario(self):
        spec = MetricSpec("dies_on_standard", _exit_for_standard)
        cells = [(scenario_at(TINY, protocol=p, distribution=REF_691), (spec,))
                 for p in ("heap", "standard")]
        with pytest.raises(ValueError, match=r"standard on ref-691 "
                                             r"\(seed 42\) was quarantined: "
                                             r"crash"):
            grid_summaries(cells, jobs=2, start_method="fork")


class TestFigureCheckpointResume:
    def test_interrupted_figure_resumes_from_checkpoint(self, tmp_path,
                                                        monkeypatch):
        grid = dict(checkpoint=str(tmp_path / "fig4.jsonl"), resume=True)
        (reference,) = run_plans([fig4_bandwidth_usage(TINY)], **grid)
        lines = (tmp_path / "fig4.jsonl").read_text().splitlines()
        assert len(lines) == 1 + 4  # header + one record per scenario

        # Kill after two finished cells, then resume.
        (tmp_path / "fig4.jsonl").write_text("\n".join(lines[:3]) + "\n")
        calls = _count_runs(monkeypatch)
        (resumed,) = run_plans([fig4_bandwidth_usage(TINY)], **grid)
        assert len(calls) == 2  # only the missing cells ran
        assert resumed.render() == reference.render()

    def test_resume_across_processes_is_fingerprint_stable(self, tmp_path):
        # The same figure twice must accept its own checkpoint (the grid
        # fingerprint is a pure function of the planned cells).
        grid = dict(checkpoint=str(tmp_path / "fig5.jsonl"), resume=True)
        (first,) = run_plans([fig5_quality_ref691(TINY)], **grid)
        (again,) = run_plans([fig5_quality_ref691(TINY)], **grid)
        assert first.render() == again.render()

    def test_checkpoint_records_hold_only_the_read_specs(self, tmp_path):
        path = tmp_path / "fig5.jsonl"
        run_plans([fig5_quality_ref691(TINY)], checkpoint=str(path))
        records = [json.loads(line)["record"]
                   for line in path.read_text().splitlines()[1:]]
        assert len(records) == 2
        wanted = [spec_jitter_free_fraction_by_class(10.0).name]
        assert all(sorted(record["summaries"]) == wanted
                   for record in records)
