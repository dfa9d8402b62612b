"""Determinism tests for the parallel experiment engine.

The contract under test: a (ScenarioConfig, seed) cell fully determines
its result — so the same grid run serially, run under ``jobs=N``, or run
twice must produce identical records (metric scalars, event counts,
simulated end times, in-worker summaries), and only wall times may
differ.  The checkpoint tests add the resume contract: a killed grid
restarts from its JSONL records without recomputing finished cells.
"""

import gc
import multiprocessing
import os
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import mean
from repro.experiments import parallel
from repro.experiments.multi_seed import metric_offline_delivery
from repro.experiments.parallel import RunRecord, run_grid
from repro.experiments.runner import run_scenario
from repro.faults import SupervisionPolicy
from repro.metrics.lag import spec_lag_delivery, spec_mean_lag_by_class
from repro.workloads.churn import CatastrophicFailure
from repro.workloads.distributions import REF_691
from repro.workloads.scenario import ScenarioConfig


def tiny_config(**overrides) -> ScenarioConfig:
    base = dict(n_nodes=10, duration=2.0, drain=4.0, distribution=REF_691)
    base.update(overrides)
    return ScenarioConfig(**base)


def metric_events(result) -> float:
    """Module-level (picklable) metric: total receiver deliveries."""
    return float(sum(len(result.log_of(node_id))
                     for node_id in result.receiver_ids()))


METRICS = {"delivery": metric_offline_delivery, "deliveries": metric_events}


def metric_freeze_count(result) -> float:
    """Module-level metric: objects in the collector's permanent
    generation of the process the cell ran in."""
    return float(gc.get_freeze_count())


class TestGridShape:
    def test_records_in_scenario_major_seed_minor_order(self):
        grid = run_grid([tiny_config(name="a"), tiny_config(name="b")],
                        seeds=[7, 8], metrics=METRICS)
        order = [(r.scenario_name, r.seed) for r in grid.records]
        assert order == [("a", 7), ("a", 8), ("b", 7), ("b", 8)]
        assert [r.seed_index for r in grid.records] == [0, 1, 0, 1]

    def test_single_config_accepted_bare(self):
        grid = run_grid(tiny_config(), seeds=[1], metrics=METRICS)
        assert len(grid.records) == 1

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_grid([], seeds=[1], metrics=METRICS)
        with pytest.raises(ValueError):
            run_grid(tiny_config(), seeds=[], metrics=METRICS)

    def test_bad_supervision_is_refused_without_a_pool(self):
        # Only the pool used to read the policy, so a serial grid ran
        # with it.
        with pytest.raises(ValueError, match="cell_retries must be >= 0"):
            run_grid(tiny_config(), seeds=[1], metrics=METRICS,
                     supervision=SupervisionPolicy(cell_retries=-1))

    def test_progress_called_once_per_cell(self):
        calls = []
        run_grid(tiny_config(), seeds=[1, 2, 3], metrics=METRICS,
                 progress=lambda event: calls.append((event.done, event.total)))
        assert calls == [(1, 3), (2, 3), (3, 3)]

    def test_records_are_picklable(self):
        grid = run_grid(tiny_config(), seeds=[1], metrics=METRICS)
        clone = pickle.loads(pickle.dumps(grid.records[0]))
        assert clone == grid.records[0]


class TestDeterminism:
    def test_repeated_serial_runs_identical(self):
        grids = [run_grid(tiny_config(), seeds=[1, 2], metrics=METRICS)
                 for _ in range(2)]
        assert grids[0].determinism_keys() == grids[1].determinism_keys()

    def test_parallel_matches_serial_bit_for_bit(self):
        configs = [tiny_config(name="heap"),
                   tiny_config(name="standard", protocol="standard")]
        serial = run_grid(configs, seeds=[1, 2, 3], metrics=METRICS, jobs=1)
        parallel = run_grid(configs, seeds=[1, 2, 3], metrics=METRICS, jobs=2)
        assert serial.determinism_keys() == parallel.determinism_keys()
        assert serial.render() == parallel.render()

    def test_spawn_start_method_matches_serial(self):
        # The portable (and strictest) pool mode: workers import the
        # package from scratch and receive everything as pickles.
        serial = run_grid(tiny_config(), seeds=[1, 2], metrics=METRICS)
        spawned = run_grid(tiny_config(), seeds=[1, 2], metrics=METRICS,
                           jobs=2, start_method="spawn")
        assert serial.determinism_keys() == spawned.determinism_keys()

    def test_seed_changes_results(self):
        grid = run_grid(tiny_config(), seeds=[1, 2], metrics=METRICS)
        assert (grid.records[0].events_executed
                != grid.records[1].events_executed)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_same_seed_same_receiver_logs(self, seed):
        """Property: one seed fully determines the full receiver trace."""
        config = tiny_config(seed=seed)
        a = run_scenario(pickle.loads(pickle.dumps(config)))
        b = run_scenario(pickle.loads(pickle.dumps(config)))
        assert a.sim.events_executed == b.sim.events_executed
        assert a.publish_times == b.publish_times
        for node_id in a.receiver_ids():
            assert dict(a.log_of(node_id).items()) == dict(b.log_of(node_id).items())

    @settings(max_examples=3, deadline=None)
    @given(seeds=st.lists(st.integers(min_value=0, max_value=10_000),
                          min_size=1, max_size=3, unique=True))
    def test_property_serial_equals_parallel(self, seeds):
        config = tiny_config()
        serial = run_grid(config, seeds=seeds, metrics=METRICS, jobs=1)
        parallel = run_grid(config, seeds=seeds, metrics=METRICS, jobs=2)
        assert serial.determinism_keys() == parallel.determinism_keys()


class TestChurnIsolation:
    def test_churn_state_does_not_leak_between_cells(self):
        # The CatastrophicFailure object records its victims; the engine
        # must hand every cell a fresh copy so seeds can't contaminate
        # each other.
        churn = CatastrophicFailure(fraction=0.3, at_time=3.0)
        config = tiny_config(duration=4.0, drain=4.0, churn=churn)
        grid = run_grid(config, seeds=[1, 2, 3], metrics=METRICS)
        assert churn.victims == []  # the caller's object is untouched
        repeat = run_grid(config, seeds=[1, 2, 3], metrics=METRICS)
        assert grid.determinism_keys() == repeat.determinism_keys()


class TestRunSeedsCompat:
    """One config over several seeds: ``aggregated_for(0)`` of its grid."""

    def test_run_seeds_jobs_equivalence(self):
        config = tiny_config()
        serial = run_grid(config, [1, 2, 3], METRICS).aggregated_for(0)
        parallel = run_grid(config, [1, 2, 3], METRICS,
                            jobs=2).aggregated_for(0)
        for name in METRICS:
            assert serial[name].values == parallel[name].values

    def test_run_seeds_matches_direct_runs(self):
        config = tiny_config()
        aggregated = run_grid(config, [4, 5],
                              {"delivery": metric_offline_delivery}
                              ).aggregated_for(0)
        direct = [metric_offline_delivery(run_scenario(config.with_(seed=s)))
                  for s in (4, 5)]
        assert aggregated["delivery"].values == direct
        assert aggregated["delivery"].mean == mean(direct)

    def test_lambda_metrics_still_work_serially(self):
        # Serial execution must not require picklable metrics.
        aggregated = run_grid(tiny_config(), [1, 2],
                              {"half": lambda result: 0.5}).aggregated_for(0)
        assert aggregated["half"].values == [0.5, 0.5]


SPECS = (spec_lag_delivery(0.99), spec_mean_lag_by_class())


class TestSummaries:
    def test_serial_records_carry_requested_summaries(self):
        grid = run_grid(tiny_config(), seeds=[1], metrics=METRICS,
                        summaries=SPECS)
        record = grid.records[0]
        assert set(record.summaries) == {spec.name for spec in SPECS}
        direct = run_scenario(tiny_config(seed=1))
        for spec in SPECS:
            assert record.summaries[spec.name] == spec.fn(direct)

    def test_pool_summaries_match_serial(self):
        serial = run_grid(tiny_config(), seeds=[1, 2], metrics=METRICS,
                          summaries=SPECS)
        pooled = run_grid(tiny_config(), seeds=[1, 2], metrics=METRICS,
                          summaries=SPECS, jobs=2, start_method="fork")
        assert serial.summary_keys() == pooled.summary_keys()
        assert serial.determinism_keys() == pooled.determinism_keys()

    def test_spawn_summaries_match_serial(self):
        # Spawn workers re-import the package with a fresh hash seed and
        # rebuild every RNG from the pickled config: the summaries must
        # still be bit-identical (the RNG registry derives streams from
        # SHA-256, never from process state).
        serial = run_grid(tiny_config(), seeds=[1], metrics=METRICS,
                          summaries=SPECS)
        spawned = run_grid(tiny_config(), seeds=[1, 1], metrics={},
                           summaries=SPECS, jobs=2, start_method="spawn")
        assert (serial.records[0].summary_key()
                == spawned.records[0].summary_key()
                == spawned.records[1].summary_key())

    def test_per_scenario_spec_lists(self):
        configs = [tiny_config(name="a"), tiny_config(name="b")]
        grid = run_grid(configs, seeds=[1], metrics=METRICS,
                        summaries=[(SPECS[0],), (SPECS[1],)])
        assert set(grid.records[0].summaries) == {SPECS[0].name}
        assert set(grid.records[1].summaries) == {SPECS[1].name}

    def test_spawn_rejects_main_module_functions(self):
        # A __main__-defined metric unpickles nowhere in a spawn worker;
        # historically that killed the worker and deadlocked the pool.
        def local_metric(result):  # pragma: no cover - never runs
            return 1.0

        local_metric.__module__ = "__main__"
        with pytest.raises(ValueError, match="__main__"):
            run_grid(tiny_config(), seeds=[1, 2],
                     metrics={"m": local_metric}, jobs=2,
                     start_method="spawn")


class TestOwnSeedGrids:
    def test_seeds_none_runs_each_config_under_its_own_seed(self):
        configs = [tiny_config(name="a", seed=7), tiny_config(name="b", seed=9)]
        grid = run_grid(configs, seeds=None, metrics=METRICS)
        assert [r.seed for r in grid.records] == [7, 9]
        assert grid.seeds == [None]
        direct = run_grid(tiny_config(name="a"), seeds=[7], metrics=METRICS)
        assert (grid.records[0].determinism_key()[3:]
                == direct.records[0].determinism_key()[3:])

    def test_records_for_one_per_scenario(self):
        configs = [tiny_config(name="a", seed=1), tiny_config(name="b", seed=2)]
        grid = run_grid(configs, seeds=None, metrics=METRICS)
        assert [r.scenario_name for r in grid.records_for(1)] == ["b"]

    def test_render_reports_each_scenarios_own_seed(self):
        configs = [tiny_config(name="a", seed=7), tiny_config(name="b", seed=9)]
        text = run_grid(configs, seeds=None, metrics=METRICS).render()
        assert "[0] a: " in text and "seeds=[7]" in text
        assert "[1] b: " in text and "seeds=[9]" in text
        assert "seeds=[7, 9]" not in text


class TestSingleCpuBypass:
    def test_one_cpu_host_skips_the_pool(self, monkeypatch):
        # On a 1-CPU host a pool is pure overhead (~9% measured): jobs>1
        # must run in-process.  Creating any pool context here fails the
        # test.
        import multiprocessing

        monkeypatch.setattr(parallel, "_available_cpus", lambda: 1)

        def forbidden(*args, **kwargs):
            raise AssertionError("pool must be bypassed on a 1-CPU host")

        monkeypatch.setattr(multiprocessing, "get_context", forbidden)
        grid = run_grid(tiny_config(), seeds=[1, 2], metrics=METRICS, jobs=4)
        assert len(grid.records) == 2

    def test_explicit_start_method_still_forces_the_pool(self, monkeypatch):
        monkeypatch.setattr(parallel, "_available_cpus", lambda: 1)
        grid = run_grid(tiny_config(), seeds=[1, 2], metrics=METRICS,
                        jobs=2, start_method="fork")
        serial = run_grid(tiny_config(), seeds=[1, 2], metrics=METRICS)
        assert grid.determinism_keys() == serial.determinism_keys()


class TestCellsDoNotAccumulate:
    """A finished cell's object graph is one reference cycle and
    ``Simulator.run`` pauses the collector, so ``_run_cell`` collects the
    graph where it dies — whichever runner returned, because a result
    (cached or not) is plain data that keeps no graph alive."""

    @staticmethod
    def payload(seed, n_nodes=300):
        config = ScenarioConfig(n_nodes=n_nodes, duration=0.2, drain=0.3,
                                distribution=REF_691, seed=seed)
        return (0, 0, config.name, 0, config, tuple(METRICS.items()), ())

    def test_the_graph_is_gone_when_the_cell_returns(self):
        gc.collect()
        _, record = parallel._run_cell(self.payload(1))
        assert gc.collect() == 0
        assert record.events_executed > 0

    def test_consecutive_cells_keep_memory_flat(self):
        gc.collect()
        tracemalloc.start()
        try:
            held = []
            for seed in range(1, 6):
                parallel._run_cell(self.payload(seed))
                held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        # One 300-node graph is ~6 MB; from the second cell on (caches
        # warm) nothing may stay behind.
        assert max(held[1:]) - held[1] < 256 * 1024

    def test_every_cell_collects_once(self):
        passes = []

        def on_gc(phase, info):
            if phase == "start":
                passes.append(info["generation"])

        gc.collect()
        gc.callbacks.append(on_gc)
        # Collector off: every pass seen is one somebody asked for.
        gc.disable()
        try:
            parallel._run_cell(self.payload(1, n_nodes=30))
            assert passes == [2]
            parallel._run_cell(self.payload(1, n_nodes=30))
            assert passes == [2, 2]
        finally:
            gc.enable()
            gc.callbacks.remove(on_gc)


class TestWorkersFreezeTheirInheritedHeap:
    """A pool worker moves the heap it started with to the permanent
    generation once, so the per-cell collection walks only the cell;
    the library never freezes its caller."""

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_pool_cells_run_over_a_frozen_heap(self, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{method} start method unavailable")
        grid = run_grid(tiny_config(), seeds=[1, 2],
                        metrics={"frozen": metric_freeze_count},
                        jobs=2, start_method=method)
        assert len(grid.records) == 2
        assert all(record.metrics["frozen"] > 0 for record in grid.records)

    def test_an_in_process_cell_freezes_nothing(self):
        assert gc.get_freeze_count() == 0
        _, record = parallel._run_cell(
            TestCellsDoNotAccumulate.payload(1, n_nodes=30))
        assert record.events_executed > 0
        assert gc.get_freeze_count() == 0


def _counting_run_scenario(monkeypatch):
    calls = []
    real = parallel.run_scenario

    def wrapper(config):
        calls.append(config.seed)
        return real(config)

    monkeypatch.setattr(parallel, "run_scenario", wrapper)
    return calls


class TestCheckpoint:
    def test_checkpoint_file_has_header_and_records(self, tmp_path):
        path = str(tmp_path / "grid.jsonl")
        run_grid(tiny_config(), seeds=[1, 2], metrics=METRICS,
                 summaries=SPECS, checkpoint=path)
        from repro.metrics.export import read_jsonl

        objects = read_jsonl(path)
        assert objects[0]["format"] == parallel.CHECKPOINT_FORMAT
        assert objects[0]["total"] == 2
        assert sorted(obj["index"] for obj in objects[1:]) == [0, 1]

    def test_resume_restores_without_recomputing(self, tmp_path, monkeypatch):
        path = str(tmp_path / "grid.jsonl")
        full = run_grid(tiny_config(), seeds=[1, 2, 3], metrics=METRICS,
                        summaries=SPECS, checkpoint=path)
        # Simulate a kill after the first record landed.
        lines = (tmp_path / "grid.jsonl").read_text().splitlines()
        (tmp_path / "grid.jsonl").write_text("\n".join(lines[:2]) + "\n")
        calls = _counting_run_scenario(monkeypatch)
        resumed = run_grid(tiny_config(), seeds=[1, 2, 3], metrics=METRICS,
                           summaries=SPECS, checkpoint=path, resume=True)
        assert calls == [2, 3]  # seed 1 restored from the checkpoint
        assert resumed.determinism_keys() == full.determinism_keys()
        assert resumed.summary_keys() == full.summary_keys()

    def test_restored_record_drops_retired_wire_counters(self):
        """A record from a checkpoint written while the wire summary
        still carried payload-byte counters keeps only today's keys: a
        resumed job sums ``wire`` over fresh and restored cells alike,
        so a counter only the restored cells carry would be partial."""
        old = {"scenario_index": 0, "scenario_name": "heap",
               "seed_index": 0, "seed": 1, "metrics": {"delivery": 0.5},
               "events_executed": 10, "sim_end_time": 2.0,
               "wall_time": 0.1, "summaries": {},
               "wire": {"buffers": 4, "envelopes": 30, "bytes": 900,
                        "payload_bytes_before_interning": 1500,
                        "payload_bytes_after_interning": 600,
                        "control_rows": 2}}
        record = RunRecord.from_jsonable(old)
        assert record.wire == {"buffers": 4, "envelopes": 30, "bytes": 900,
                               "control_rows": 2}

    def test_resume_tolerates_a_truncated_last_line(self, tmp_path,
                                                    monkeypatch):
        path = str(tmp_path / "grid.jsonl")
        run_grid(tiny_config(), seeds=[1, 2], metrics=METRICS,
                 checkpoint=path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"index": 5, "rec')  # the kill landed mid-write
        calls = _counting_run_scenario(monkeypatch)
        resumed = run_grid(tiny_config(), seeds=[1, 2], metrics=METRICS,
                           checkpoint=path, resume=True)
        assert calls == []
        assert len(resumed.records) == 2

    def test_resume_rejects_a_different_grid(self, tmp_path):
        path = str(tmp_path / "grid.jsonl")
        run_grid(tiny_config(), seeds=[1, 2], metrics=METRICS,
                 checkpoint=path)
        with pytest.raises(ValueError, match="different grid"):
            run_grid(tiny_config(), seeds=[1, 2, 3], metrics=METRICS,
                     checkpoint=path, resume=True)

    @pytest.mark.parametrize("mode", ["per-pair", "shared"])
    def test_checkpoint_of_another_stream_derivation(self, tmp_path, capsys,
                                                     monkeypatch, mode):
        """A per-pair checkpoint written under another per-link stream
        derivation is stale — a loud mismatch under an explicit
        checkpoint, discarded under a managed one (``checkpoint_gc``, how
        ``--checkpoint-dir`` and the service's ``job-<fp>.jsonl`` run) —
        and never resumed into a grid of mixed derivations.  A shared-mode
        checkpoint does not know the derivation exists and resumes."""
        import repro.workloads.scenario as scenario

        path = str(tmp_path / "job-0123456789abcdef.jsonl")
        config = tiny_config(latency_rng=mode)
        with monkeypatch.context() as older:
            older.setattr(scenario, "PER_PAIR_STREAMS", 1)
            run_grid(config, seeds=[1, 2], metrics=METRICS, checkpoint=path)
        calls = _counting_run_scenario(monkeypatch)
        if mode == "shared":
            run_grid(config, seeds=[1, 2], metrics=METRICS, checkpoint=path,
                     resume=True)
            assert calls == []
            return
        with pytest.raises(ValueError, match="different grid"):
            run_grid(config, seeds=[1, 2], metrics=METRICS, checkpoint=path,
                     resume=True)
        assert calls == []
        run_grid(config, seeds=[1, 2], metrics=METRICS, checkpoint=path,
                 resume=True, checkpoint_gc=True)
        assert calls == [1, 2]  # nothing restored: both cells re-ran
        assert "discarding stale checkpoint" in capsys.readouterr().err
        assert not os.path.exists(path)  # spent after the rerun

    def test_checkpoint_without_resume_starts_fresh(self, tmp_path):
        path = str(tmp_path / "grid.jsonl")
        run_grid(tiny_config(), seeds=[1], metrics=METRICS, checkpoint=path)
        run_grid(tiny_config(name="other"), seeds=[1], metrics=METRICS,
                 checkpoint=path)  # no resume: overwrite, no fingerprint clash
        from repro.metrics.export import read_jsonl

        objects = read_jsonl(path)
        assert objects[0]["total"] == 1

    def test_progress_fires_for_restored_and_fresh_cells(self, tmp_path):
        path = str(tmp_path / "grid.jsonl")
        run_grid(tiny_config(), seeds=[1, 2], metrics=METRICS,
                 checkpoint=path)
        lines = (tmp_path / "grid.jsonl").read_text().splitlines()
        (tmp_path / "grid.jsonl").write_text("\n".join(lines[:2]) + "\n")
        seen = []
        run_grid(tiny_config(), seeds=[1, 2], metrics=METRICS,
                 checkpoint=path, resume=True,
                 progress=lambda event: seen.append((event.done, event.total,
                                                     event.restored)))
        assert seen == [(1, 2, True), (2, 2, False)]

    def test_resume_after_torn_tail_repairs_checkpoint_file(self, tmp_path):
        """The glue regression: resuming appends to the checkpoint, so a
        torn tail must be truncated *on disk* first — otherwise the first
        fresh record lands glued onto the partial line, manufacturing a
        corrupt line in the middle of the file that poisons every later
        resume."""
        path = str(tmp_path / "grid.jsonl")
        full = run_grid(tiny_config(), seeds=[1, 2], metrics=METRICS,
                        checkpoint=path)
        text = (tmp_path / "grid.jsonl").read_text()
        lines = text.splitlines(keepends=True)
        # Keep the header + record 0, then half of record 1 (killed
        # mid-write).
        (tmp_path / "grid.jsonl").write_text("".join(lines[:2])
                                             + lines[2][:20])
        with pytest.warns(RuntimeWarning, match="torn trailing line"):
            resumed = run_grid(tiny_config(), seeds=[1, 2], metrics=METRICS,
                               checkpoint=path, resume=True)
        assert resumed.determinism_keys() == full.determinism_keys()
        # The file now parses cleanly end to end: header + both records,
        # no corrupt middle line — so it resumes again, warning-free.
        from repro.metrics.export import read_jsonl

        objects = read_jsonl(path)
        assert sorted(obj["index"] for obj in objects[1:]) == [0, 1]
        again = run_grid(tiny_config(), seeds=[1, 2], metrics=METRICS,
                         checkpoint=path, resume=True)
        assert again.determinism_keys() == full.determinism_keys()


class TestProgressEvent:
    """Satellite: the structured progress-event API every consumer
    (CLI line, service SSE stream, tests) shares."""

    def test_event_carries_cell_identity_and_counters(self):
        from repro.workloads.scenario import scenario_key

        config = tiny_config()
        events = []
        run_grid(config, seeds=[5], metrics=METRICS, progress=events.append)
        (event,) = events
        assert (event.done, event.total) == (1, 1)
        assert event.restored is False
        # The key names the *cell* — the config with the cell's seed.
        assert event.cell_key == scenario_key(config.with_(seed=5))
        assert event.record.seed == 5
        assert event.record.metrics["delivery"] > 0
        assert event.events_per_sec >= 0.0

    def test_events_per_sec_guards_zero_wall_time(self):
        record = RunRecord(scenario_index=0, scenario_name="x", seed_index=0,
                           seed=1, metrics={}, events_executed=100,
                           sim_end_time=1.0, wall_time=0.0)
        event = parallel.ProgressEvent(done=1, total=1, record=record,
                                       cell_key="k")
        assert event.events_per_sec == 0.0

    def test_to_jsonable_is_flat_and_serializable(self):
        import json

        events = []
        run_grid(tiny_config(), seeds=[1], metrics=METRICS,
                 progress=events.append)
        payload = events[0].to_jsonable()
        assert json.loads(json.dumps(payload)) == payload
        for key in ("done", "total", "restored", "cell_key",
                    "scenario_name", "seed", "events_executed",
                    "events_per_sec", "metrics", "wire"):
            assert key in payload


class TestJsonlRepair:
    """Satellite: crash-safe checkpoint appends — torn tails are
    tolerated on read and (with ``repair=True``) truncated in place."""

    def test_torn_tail_truncated_in_place(self, tmp_path):
        from repro.metrics.export import read_jsonl

        path = tmp_path / "x.jsonl"
        path.write_text('{"a":1}\n{"a":2}\n{"a":3,"b"')
        with pytest.warns(RuntimeWarning, match="torn trailing line"):
            objects = read_jsonl(str(path), repair=True)
        assert objects == [{"a": 1}, {"a": 2}]
        assert path.read_text() == '{"a":1}\n{"a":2}\n'

    def test_unterminated_valid_tail_gets_its_newline(self, tmp_path):
        from repro.metrics.export import read_jsonl

        path = tmp_path / "x.jsonl"
        path.write_text('{"a":1}\n{"a":2}')  # record landed, "\n" did not
        with pytest.warns(RuntimeWarning, match="missing its newline"):
            objects = read_jsonl(str(path), repair=True)
        assert objects == [{"a": 1}, {"a": 2}]  # the record is kept
        assert path.read_text() == '{"a":1}\n{"a":2}\n'

    def test_without_repair_file_is_left_untouched(self, tmp_path):
        from repro.metrics.export import read_jsonl

        path = tmp_path / "x.jsonl"
        torn = '{"a":1}\n{"a":3,"b"'
        path.write_text(torn)
        assert read_jsonl(str(path)) == [{"a": 1}]
        assert path.read_text() == torn

    def test_corrupt_middle_line_still_raises(self, tmp_path):
        import json as json_module

        from repro.metrics.export import read_jsonl

        path = tmp_path / "x.jsonl"
        path.write_text('{"a":1}\nGARBAGE\n{"a":2}\n')
        with pytest.raises(json_module.JSONDecodeError):
            read_jsonl(str(path), repair=True)

    def test_append_after_repair_keeps_every_line_parseable(self, tmp_path):
        from repro.metrics.export import append_jsonl, read_jsonl

        path = tmp_path / "x.jsonl"
        path.write_text('{"a":1}\n{"a":2,"b"')
        with pytest.warns(RuntimeWarning):
            read_jsonl(str(path), repair=True)
        with open(path, "a", encoding="utf-8") as fh:
            append_jsonl(fh, {"a": 2})
        assert read_jsonl(str(path)) == [{"a": 1}, {"a": 2}]

    def test_append_jsonl_fsyncs_real_files_and_accepts_stringio(self,
                                                                 tmp_path):
        import io

        from repro.metrics.export import append_jsonl, read_jsonl

        path = tmp_path / "x.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            append_jsonl(fh, {"a": 1})  # fsync path: a real descriptor
        assert read_jsonl(str(path)) == [{"a": 1}]
        sink = io.StringIO()
        append_jsonl(sink, {"a": 2})  # no fileno -> flush-only, no raise
        assert sink.getvalue() == '{"a":2}\n'
