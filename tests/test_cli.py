"""Tests for the command-line interface."""

import dataclasses

import pytest

from repro.cli import build_parser, main
from repro.experiments.artifacts import artifact_ids
from repro.experiments.specs import SweepSpec

SPEC_FIELDS = [f.name for f in dataclasses.fields(SweepSpec)]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.protocol == "heap"
        assert args.distribution == "ref-691"

    @pytest.mark.parametrize("name", SPEC_FIELDS)
    def test_every_spec_field_is_a_sweep_and_submit_flag(self, name, capsys):
        """One table: each SweepSpec field is a `sweep` flag defaulting
        to the field default and a `submit` flag defaulting to None."""
        flag = "--" + name.replace("_", "-")
        for command in ("sweep", "submit"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            assert flag in capsys.readouterr().out
        default = getattr(SweepSpec(), name)
        assert getattr(build_parser().parse_args(["sweep"]), name) == default
        assert getattr(build_parser().parse_args(["submit"]), name) is None

    def test_spec_round_trips_through_its_params(self):
        spec = SweepSpec.from_params({
            "protocols": "heap", "seeds": "3,5", "membership": "cyclon",
            "discovery": True, "churn_fraction": 0.2, "churn_time": 4,
            "attacks": "poisoned-view=0.05", "latency_rng": "per-pair",
            "faults": "crash-cell=1"})
        assert SweepSpec.from_params(spec.to_params()) == spec
        assert set(spec.to_params()) == set(SPEC_FIELDS)
        assert SweepSpec.from_params(SweepSpec().to_params()) == SweepSpec()

    def test_registries_cover_all_paper_artifacts(self):
        assert set(artifact_ids("figure")) == {
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
            "fig9", "fig10a", "fig10b"}
        assert artifact_ids("table") == ["table1", "table2", "table3"]
        assert len(artifact_ids("ablation")) == 4
        assert len(artifact_ids("extension")) == 4


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig10a" in out
        assert "table3" in out
        assert "freeriders" in out

    def test_table1(self, capsys):
        assert main(["table", "table1"]) == 0
        out = capsys.readouterr().out
        assert "ref-691" in out and "CSR" in out

    def test_unknown_id(self, capsys):
        assert main(["figure", "fig99"]) == 2
        assert "unknown figure id 'fig99'" in capsys.readouterr().err

    def test_bad_environment_scale_is_refused_like_the_flag(
            self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.setenv("REPRO_SCALE", "quik")
        assert main(["figure", "fig5"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: unknown REPRO_SCALE 'quik'; ")

    @pytest.mark.parametrize("value", ["8x", "-3", "0", ""])
    def test_bad_environment_jobs_is_refused(self, value, capsys,
                                             monkeypatch):
        """Not a silent serial run: a one-line error naming the variable."""
        from repro.experiments.gridrun import default_jobs

        monkeypatch.setenv("REPRO_JOBS", value)
        with pytest.raises(ValueError, match=f"invalid REPRO_JOBS {value!r}"):
            default_jobs()
        assert main(["figure", "fig5", "--scale", "quick", "--quiet"]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: invalid REPRO_JOBS {value!r}; ")

    def test_environment_jobs_default(self, monkeypatch):
        from repro.experiments.gridrun import default_jobs

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3

    def test_run_small_scenario(self, capsys):
        code = main(["run", "--nodes", "25", "--seconds", "5",
                     "--drain", "12", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "jitter-free windows" in out
        assert "utilization" in out

    def test_run_with_freeriders_reports_detection(self, capsys):
        code = main(["run", "--nodes", "30", "--seconds", "5", "--drain", "12",
                     "--attacks", "nonserve=0.2", "--audit"])
        assert code == 0
        out = capsys.readouterr().out
        assert "freeriders:" in out
        assert "precision" in out

    @pytest.mark.parametrize("flag, value", [
        ("--drain", "nan"),           # used to run 0 events, "100 %" delivery
        ("--drain", "inf"),           # used to never return
        ("--seconds", "nan"),         # used to end in a traceback
        ("--churn-fraction", "nan"),  # used to be ignored
    ])
    def test_run_refuses_a_non_finite_timing(self, capsys, flag, value):
        code = main(["run", "--nodes", "20", "--seconds", "2", flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be finite" in err

    def test_run_with_churn(self, capsys):
        code = main(["run", "--nodes", "25", "--seconds", "8", "--drain", "15",
                     "--churn-fraction", "0.2", "--churn-time", "4"])
        assert code == 0

    def test_run_is_the_one_cell_case_of_the_service_run_job(
            self, capsys, monkeypatch):
        """`repro run` and a service `run` job build their scenario from
        the same spec table: equal scenario identity, equal run."""
        from repro import cli
        from repro.experiments.parallel import run_grid
        from repro.service.jobs import JobSpec
        from repro.workloads.scenario import scenario_key

        ran = []
        run_scenario = cli.run_scenario

        def recording(config):
            ran.append(config)
            return run_scenario(config)

        monkeypatch.setattr(cli, "run_scenario", recording)
        assert main(["run", "--nodes", "25", "--seconds", "4", "--drain", "8",
                     "--seed", "5", "--membership", "cyclon", "--discovery",
                     "--churn-fraction", "0.2", "--churn-time", "3",
                     "--loss", "0.02"]) == 0
        (cli_config,) = ran
        spec = JobSpec("run", {
            "protocols": ["heap"], "nodes": 25, "seconds": 4, "drain": 8,
            "base_seed": 5, "membership": "cyclon", "discovery": True,
            "churn_fraction": 0.2, "churn_time": 3, "loss": 0.02}).sweep_spec()
        (job_config,) = spec.configs()
        assert scenario_key(job_config.with_(seed=5)) == scenario_key(cli_config)
        grid = run_grid([job_config], spec.seed_list(), spec.metrics())
        events = f"events: {grid.records[0].events_executed:,}"
        assert events in capsys.readouterr().out

    def test_run_tree_protocol(self, capsys):
        code = main(["run", "--protocol", "tree", "--nodes", "25",
                     "--seconds", "5", "--drain", "12",
                     "--distribution", "unconstrained"])
        assert code == 0


class TestGridFlags:
    def test_figure_parser_accepts_grid_flags(self):
        args = build_parser().parse_args(
            ["figure", "fig5", "--scale", "quick", "--jobs", "4",
             "--checkpoint", "x.jsonl", "--resume", "--quiet"])
        assert args.jobs == 4
        assert args.checkpoint == "x.jsonl"
        assert args.resume is True

    def test_sweep_parser_accepts_checkpoint_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--checkpoint", "s.jsonl", "--resume"])
        assert args.checkpoint == "s.jsonl"
        assert args.resume is True

    def test_sweep_checkpoint_resume_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "sweep.jsonl")
        argv = ["sweep", "--protocols", "heap", "--nodes", "10",
                "--seconds", "2", "--drain", "4", "--num-seeds", "2",
                "--quiet", "--checkpoint", path]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_render_calls_do_not_share_execution_options(
            self, tmp_path, capsys, monkeypatch):
        """Execution flags reach the grid as arguments of *that* call: a
        second render in the same process sees none of the first's."""
        from repro.experiments import gridrun

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        seen = []
        run_grid = gridrun.run_grid

        def recording(*args, **kwargs):
            seen.append((kwargs["jobs"], kwargs["checkpoint"],
                         kwargs["resume"]))
            return run_grid(*args, **kwargs)

        monkeypatch.setattr(gridrun, "run_grid", recording)
        path = str(tmp_path / "fig5.jsonl")
        argv = ["figure", "fig5", "--scale", "quick", "--quiet"]
        assert main(argv + ["--jobs", "2", "--checkpoint", path,
                            "--resume"]) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert seen == [(2, path, True), (1, None, False)]


class TestSweepCsv:
    def test_sweep_csv_exports_one_row_per_cell(self, tmp_path, capsys):
        csv_path = tmp_path / "grid.csv"
        assert main(["sweep", "--protocols", "heap,standard", "--nodes", "10",
                     "--seconds", "2", "--drain", "4", "--num-seeds", "2",
                     "--quiet", "--csv", str(csv_path)]) == 0
        import csv as csv_module

        with open(csv_path, newline="") as fh:
            rows = list(csv_module.reader(fh))
        header, data = rows[0], rows[1:]
        assert len(data) == 2 * 2  # protocols x seeds
        assert "scenario_name" in header and "metric:delivery" in header
        by_name = [row[header.index("scenario_name")] for row in data]
        assert by_name == ["heap", "heap", "standard", "standard"]
        delivery = [float(row[header.index("metric:delivery")])
                    for row in data]
        assert all(0.0 <= value <= 1.0 for value in delivery)


class TestCheckpointDir:
    ARGS = ["sweep", "--protocols", "heap", "--nodes", "10", "--seconds", "2",
            "--drain", "4", "--num-seeds", "2", "--quiet"]

    def test_spent_checkpoint_removed_after_success(self, tmp_path, capsys):
        ckpt_dir = tmp_path / "ckpts"
        assert main(self.ARGS + ["--checkpoint-dir", str(ckpt_dir)]) == 0
        assert list(ckpt_dir.glob("*.jsonl")) == []

    def test_mismatched_checkpoint_gcd_not_fatal(self, tmp_path, capsys):
        """A stale checkpoint (different grid fingerprint) under
        --checkpoint-dir is discarded and the run proceeds; with plain
        --checkpoint the same situation is a hard error."""
        ckpt_dir = tmp_path / "ckpts"
        ckpt_dir.mkdir()
        stale = ckpt_dir / "sweep-ref-691-default.jsonl"
        stale.write_text('{"format": "repro-grid-checkpoint-v1", '
                         '"fingerprint": "not-this-grid", "total": 1}\n')
        assert main(self.ARGS + ["--checkpoint-dir", str(ckpt_dir),
                                 "--resume"]) == 0
        out_dir = capsys.readouterr()
        assert "discarding stale checkpoint" in out_dir.err
        assert not stale.exists()  # spent after the successful rerun
        # Same stale file through --checkpoint --resume stays an error.
        stale.write_text('{"format": "repro-grid-checkpoint-v1", '
                         '"fingerprint": "not-this-grid", "total": 1}\n')
        assert main(self.ARGS + ["--checkpoint", str(stale),
                                 "--resume"]) == 2

    def test_explicit_checkpoint_never_housekept(self, tmp_path, capsys):
        """--checkpoint PATH keeps fail-loud, keep-the-file semantics
        even when --checkpoint-dir is also on the command line."""
        explicit = tmp_path / "mine.jsonl"
        assert main(self.ARGS + ["--checkpoint", str(explicit),
                                 "--checkpoint-dir",
                                 str(tmp_path / "ckpts")]) == 0
        assert explicit.exists()  # not deleted after success
        explicit.write_text('{"format": "repro-grid-checkpoint-v1", '
                            '"fingerprint": "not-this-grid", "total": 1}\n')
        assert main(self.ARGS + ["--checkpoint", str(explicit),
                                 "--checkpoint-dir", str(tmp_path / "ckpts"),
                                 "--resume"]) == 2  # mismatch stays fatal

    def test_kill_resume_roundtrip_via_checkpoint_dir(self, tmp_path, capsys):
        """A checkpoint-dir run that 'died' (checkpoint left behind by a
        direct run_grid call) resumes and produces identical output."""
        ckpt_dir = tmp_path / "ckpts"
        assert main(self.ARGS + ["--checkpoint-dir", str(ckpt_dir)]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS + ["--checkpoint-dir", str(ckpt_dir),
                                 "--resume"]) == 0
        assert capsys.readouterr().out == first


class TestArtifactCsv:
    """Satellite: figure/table/ablation grow --csv mirroring sweep --csv."""

    def _read(self, path):
        import csv as csv_module

        with open(path, newline="") as fh:
            return list(csv_module.reader(fh))

    def test_table_csv_matches_rendered_rows(self, tmp_path, capsys):
        csv_path = tmp_path / "table1.csv"
        assert main(["table", "table1", "--csv", str(csv_path)]) == 0
        rows = self._read(csv_path)
        out = capsys.readouterr().out
        assert len(rows) > 1
        from repro.experiments.tables import table1_distributions

        result = table1_distributions()
        assert rows[0] == [str(h) for h in result.headers]
        assert len(rows) - 1 == len(result.rows)

    def test_figure_csv_written(self, tmp_path, capsys):
        csv_path = tmp_path / "fig5.csv"
        assert main(["figure", "fig5", "--scale", "quick", "--quiet",
                     "--csv", str(csv_path)]) == 0
        rows = self._read(csv_path)
        assert rows[0][0] == "distribution"
        assert len(rows) > 1

    def test_ablation_csv_written(self, tmp_path, capsys):
        csv_path = tmp_path / "ablation.csv"
        assert main(["ablation", "aggregation", "--scale", "quick", "--quiet",
                     "--csv", str(csv_path)]) == 0
        assert len(self._read(csv_path)) > 1

    def test_parser_accepts_csv_everywhere(self):
        for command, name in (("figure", "fig5"), ("table", "table3"),
                              ("ablation", "aggregation")):
            args = build_parser().parse_args([command, name, "--csv", "x.csv"])
            assert args.csv == "x.csv"


class TestRetiredShardOptions:
    """The sharded engine is a library (``ScenarioConfig(shards=N)``,
    ``run_sharded``); no command takes a shard option."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--shards", "2"],
        ["figure", "fig5", "--shards", "2"],
        ["table", "table3", "--latency-floor", "0.1"],
        ["run", "--barrier-timeout", "1"],
        ["run", "--shard-restarts", "2"],
    ])
    def test_parser_refuses(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSupervisionFlags:
    def test_negative_cell_retries_refused_without_a_pool(self, capsys):
        # A one-cell sweep never starts the pool, which alone checked
        # the policy: it used to run and exit 0.
        assert main(["sweep", "--protocols", "heap", "--nodes", "10",
                     "--seconds", "1", "--drain", "1", "--num-seeds", "1",
                     "--quiet", "--cell-retries", "-1"]) == 2
        assert "cell_retries must be >= 0" in capsys.readouterr().err
