"""Chaos parity suite for the fault-injection plane and supervision.

The contract under test is the strongest one supervision makes: every
*recovered* injected fault is invisible in the results.  A grid whose
worker was killed mid-cell, a checkpoint torn mid-write and resumed —
both must produce byte-identical records, summaries and renders to the
clean run of the same spec, because results are pure functions of
(config, seed) and supervision only ever replays deterministic work.

Non-recoverable paths are pinned too: a poison cell quarantines into a
structured ``CellFailure`` while the rest of the sweep completes, a
shard worker that dies or fails raises one structured ``ShardFailure``
(never a deadlock), and fault clauses that target an execution engine
that is not running (no pool, no checkpoint) are rejected loudly
instead of silently not firing.
"""

import json
import multiprocessing
import os
import threading

import pytest

from repro.experiments.multi_seed import metric_offline_delivery
from repro.experiments.parallel import run_grid
from repro.experiments.specs import SweepSpec
from repro.faults import (
    FaultPlan,
    ShardFailure,
    SupervisionPolicy,
    TornCheckpointInjected,
    clock,
)
from repro.faults.pool import RunStopped, SupervisedPool, Tenant
from repro.faults.supervise import Supervisor
from repro.metrics.export import read_jsonl
from repro.metrics.lag import spec_lag_delivery
from repro.net.shard import _ShardRun, run_sharded
from repro.service.jobs import JobSpec
from repro.workloads.distributions import REF_691
from repro.workloads.scenario import ScenarioConfig, scenario_key


def tiny_config(**overrides) -> ScenarioConfig:
    base = dict(n_nodes=10, duration=2.0, drain=4.0, distribution=REF_691)
    base.update(overrides)
    return ScenarioConfig(**base)


def metric_events(result) -> float:
    """Module-level (picklable) metric: total receiver deliveries."""
    return float(sum(len(result.log_of(node_id))
                     for node_id in result.receiver_ids()))


METRICS = {"delivery": metric_offline_delivery, "deliveries": metric_events}
SPECS = (spec_lag_delivery(0.99),)

#: The 4-cell chaos grid: 2 protocols x 2 seeds of a tiny scenario.
GRID_CONFIGS = (tiny_config(name="heap"),
                tiny_config(name="standard", protocol="standard"))
GRID_SEEDS = [1, 2]

#: Fast backoff so retry tests don't sleep for real.
FAST = SupervisionPolicy(backoff_base=0.01, backoff_cap=0.05)


def sharded_config(**overrides) -> ScenarioConfig:
    base = dict(protocol="heap", n_nodes=80, duration=3.0, drain=6.0,
                seed=5, distribution=REF_691,
                latency_rng="per-pair", latency_floor=0.02)
    base.update(overrides)
    return ScenarioConfig(**base)


# ----------------------------------------------------------------------
# FaultPlan: parsing, round-trips, validation
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_parse_full_syntax(self):
        plan = FaultPlan.parse("crash-cell=1,crash-cell=3x2,stall-cell=0:0.5,"
                               "stall-cell=1:2,torn-checkpoint=2")
        assert plan.crash_cells == ((1, 1), (3, 2))
        assert plan.stall_cells == ((0, 0.5), (1, 2.0))
        assert plan.torn_checkpoint == 2

    def test_round_trips_through_text(self):
        text = "crash-cell=3x2,stall-cell=0:0.5,torn-checkpoint=4"
        plan = FaultPlan.parse(text)
        assert plan.to_text() == text
        assert FaultPlan.parse(plan.to_text()) == plan

    def test_synthesized_text_parses_back(self):
        plan = FaultPlan(crash_cells=((1, 2),), stall_cells=((0, 1.5),),
                         torn_checkpoint=1)
        assert FaultPlan.parse(plan.to_text()) == plan

    def test_blank_is_none(self):
        assert FaultPlan.parse(None) is None
        assert FaultPlan.parse("") is None
        assert FaultPlan.parse("   ") is None

    def test_equality_ignores_clause_order_and_text(self):
        a = FaultPlan.parse("crash-cell=1, stall-cell=0:0.5")
        b = FaultPlan.parse("stall-cell=0:0.5,crash-cell=1")
        assert a == b
        assert a.text != b.text

    @pytest.mark.parametrize("bad", [
        "explode=1",              # unknown clause
        "crash-cell",             # missing '='
        "crash-cell=x",           # not an integer
        "crash-cell=1x0",         # kill budget < 1
        "stall-cell=0",           # missing duration
        "stall-cell=0:-1",        # non-positive duration
        "shard-exit=1",           # shard clauses are unknown
        "shard-stall=1@2",
    ])
    def test_bad_clause_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    @pytest.mark.parametrize("text, second", [
        ("torn-checkpoint=1,torn-checkpoint=5", "torn-checkpoint=5"),
        ("stall-cell=0:1,stall-cell=0:9", "stall-cell=0:9"),
        ("crash-cell=0,crash-cell=0x3", "crash-cell=0x3"),
    ])
    def test_repeated_clause_rejected(self, text, second):
        """A second clause for the same target is refused, naming it —
        not kept, dropped or merged with the first."""
        with pytest.raises(ValueError, match=f"'{second}': a second"):
            FaultPlan.parse(text)
        with pytest.raises(ValueError, match=f"'{second}'"):
            SweepSpec(protocols=("heap",), nodes=10, seconds=2.0, drain=4.0,
                      num_seeds=2, faults=text).check()

    def test_cell_fault_attempt_semantics(self):
        plan = FaultPlan.parse("crash-cell=1x2,stall-cell=2:0.5")
        # Crashes fire while the kill budget lasts, then stop.
        assert plan.cell_fault(1, 0) == ("crash",)
        assert plan.cell_fault(1, 1) == ("crash",)
        assert plan.cell_fault(1, 2) is None
        # Stalls fire on the first attempt only.
        assert plan.cell_fault(2, 0) == ("stall", 0.5)
        assert plan.cell_fault(2, 1) is None
        assert plan.cell_fault(0, 0) is None


# ----------------------------------------------------------------------
# Identity: faults are an execution circumstance, not a parameter
# ----------------------------------------------------------------------
class TestFaultIdentity:
    def test_scenario_key_ignores_shards(self):
        config = sharded_config(seed=7)
        assert scenario_key(config.with_(shards=2)) == scenario_key(config)

    def test_job_fingerprint_ignores_faults(self):
        params = {"protocols": ["heap"], "nodes": 10, "seconds": 2.0,
                  "drain": 4.0, "num_seeds": 2}
        clean = JobSpec(kind="sweep", params=params)
        faulted = JobSpec(kind="sweep",
                          params=dict(params, faults="crash-cell=1"))
        assert faulted.fingerprint() == clean.fingerprint()

    def test_shard_clauses_are_unknown(self):
        unknown = ("unknown fault clause 'shard-exit' "
                   r"\(expected one of: crash-cell, stall-cell, "
                   r"torn-checkpoint\)")
        with pytest.raises(ValueError, match=unknown):
            FaultPlan.parse("shard-exit=0@1")
        with pytest.raises(ValueError, match=unknown):
            SweepSpec(protocols=("heap",), nodes=10, seconds=2.0, drain=4.0,
                      num_seeds=2, faults="shard-exit=0@1").check()


# ----------------------------------------------------------------------
# The primitive all three supervised layers wait through
# ----------------------------------------------------------------------
def toy_child(conn, behaviour: str) -> None:
    """Module-level (spawn-importable) child for the primitive tests."""
    if behaviour == "exit-7":
        os._exit(7)
    if behaviour == "sleep":
        clock.sleep(60)
    conn.send(("hello", behaviour))
    try:
        conn.recv()  # park until the supervisor lets go
    except EOFError:
        pass


class TestSupervisor:
    @pytest.fixture(params=["fork", "spawn"])
    def supervisor(self, request):
        supervisor = Supervisor(multiprocessing.get_context(request.param),
                                target=toy_child, name="toy")
        yield supervisor
        supervisor.close()
        assert supervisor.children == []

    def test_frame_arrives_as_message(self, supervisor):
        child = supervisor.spawn("talk")
        assert supervisor.wait([child]) == [
            (child, "message", ("hello", "talk"))]
        # Silent since, no deadline armed: a bounded wait reports nothing.
        assert supervisor.wait([child], timeout=0.05) == []

    def test_exit_arrives_with_its_code(self, supervisor):
        child = supervisor.spawn("exit-7")
        assert supervisor.wait([child]) == [(child, "exited", 7)]
        assert supervisor.discard(child) == 7

    def test_silence_trips_the_deadline_and_kill_reaps(self, supervisor):
        quiet, chatty = supervisor.spawn("sleep"), supervisor.spawn("talk")
        assert supervisor.wait([quiet, chatty]) == [
            (chatty, "message", ("hello", "talk"))]
        quiet.arm(0.2)
        started = clock.monotonic()
        assert supervisor.wait([quiet, chatty]) == [(quiet, "deadline", None)]
        assert 0.2 <= clock.monotonic() - started < 5.0
        assert supervisor.discard(quiet, kill=True) < 0  # died by signal
        assert not quiet.process.is_alive()
        assert supervisor.children == [chatty]

    def test_orphan_sees_eof_and_leaves_by_itself(self, supervisor):
        """Closing the supervisor's end is enough (a forked child must
        not keep its inherited copy of that end open): no kill, exit 0."""
        child = supervisor.spawn("talk")
        supervisor.wait([child])
        assert supervisor.discard(child) == 0

    def test_close_leaves_no_live_child(self, supervisor):
        children = [supervisor.spawn("sleep"), supervisor.spawn("talk")]
        supervisor.close()
        assert not any(child.process.is_alive() for child in children)


def nap(seconds):
    """Pool runner: sleep, then answer with the pid that slept."""
    clock.sleep(seconds)
    return os.getpid()


class TestSharedPool:
    def test_stopping_one_run_leaves_the_other_alone(self):
        """Two threads run on one pool of 2: stopping one run kills its
        worker only; the other gets every outcome, and the pool ends
        with 2 live idle workers."""
        pool = SupervisedPool(multiprocessing.get_context("fork"), 2, nap)
        stalled, steady = Tenant(pool), Tenant(pool)
        stopped, outcomes = [], []

        def run_stalled():
            try:
                list(stalled.run([(0, 30.0)]))
            except RunStopped:
                stopped.append(True)

        def run_steady():
            outcomes.extend(steady.run([(key, 0.05) for key in range(6)]))

        threads = [threading.Thread(target=run_stalled),
                   threading.Thread(target=run_steady)]
        try:
            threads[0].start()
            deadline = clock.monotonic() + 10.0
            while stalled not in pool._holder.values():
                assert clock.monotonic() < deadline
                clock.sleep(0.01)
            (victim,) = [worker.process.pid for worker, tenant
                         in pool._holder.items() if tenant is stalled]
            threads[1].start()
            while not outcomes:
                assert clock.monotonic() < deadline
                clock.sleep(0.01)
            stalled.stop()
            for thread in threads:
                thread.join(10.0)
                assert not thread.is_alive()
            assert stopped == [True]
            assert sorted(key for _ok, key, _pid in outcomes) == list(range(6))
            assert {outcome[0] for outcome in outcomes} == {"ok"}
            assert victim not in {pid for _ok, _key, pid in outcomes}
            assert pool._holder == {}
            assert len(pool._idle) == 2
            assert all(worker.process.is_alive() for worker in pool._idle)
            assert victim not in {worker.process.pid for worker in pool._idle}
        finally:
            pool.close()


    def test_more_runs_than_workers_each_get_every_outcome(self):
        """Six threads share two workers, switching threads often: no
        run loses a cell or a wakeup, and no worker leaks."""
        import sys

        pool = SupervisedPool(multiprocessing.get_context("fork"), 2, nap)
        results = {}

        def run(name):
            outcomes = Tenant(pool).run([(key, 0.0) for key in range(5)])
            results[name] = sorted(key for _ok, key, _pid in outcomes)

        threads = [threading.Thread(target=run, args=(name,))
                   for name in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        assert results == {name: list(range(5)) for name in range(6)}
        assert pool._holder == {}


# ----------------------------------------------------------------------
# Grid cells: worker crashes, stalls, quarantine
# ----------------------------------------------------------------------
class TestCellCrashSupervision:
    @pytest.fixture(scope="class")
    def clean(self):
        return run_grid(GRID_CONFIGS, seeds=GRID_SEEDS, metrics=METRICS,
                        summaries=SPECS)

    def _faulted(self, faults, start_method, supervision=FAST):
        return run_grid(GRID_CONFIGS, seeds=GRID_SEEDS, metrics=METRICS,
                        summaries=SPECS, jobs=2, start_method=start_method,
                        faults=FaultPlan.parse(faults),
                        supervision=supervision)

    def test_crash_recovery_parity_fork(self, clean):
        faulted = self._faulted("crash-cell=1", "fork")
        assert faulted.determinism_keys() == clean.determinism_keys()
        assert faulted.summary_keys() == clean.summary_keys()
        assert faulted.render() == clean.render()
        assert faulted.cell_retries >= 1
        assert faulted.failures == ()

    def test_crash_recovery_parity_spawn(self, clean):
        faulted = self._faulted("crash-cell=0", "spawn")
        assert faulted.determinism_keys() == clean.determinism_keys()
        assert faulted.summary_keys() == clean.summary_keys()
        assert faulted.cell_retries >= 1
        assert faulted.failures == ()

    def test_double_crash_still_within_default_budget(self, clean):
        # Two kills, default budget of 1 + 2 retries: third attempt lands.
        faulted = self._faulted("crash-cell=2x2", "fork")
        assert faulted.determinism_keys() == clean.determinism_keys()
        assert faulted.cell_retries >= 2
        assert faulted.failures == ()

    def test_poison_cell_quarantined_sweep_completes(self, clean):
        faulted = self._faulted(
            "crash-cell=1x9", "fork",
            supervision=SupervisionPolicy(cell_retries=1, backoff_base=0.01))
        (failure,) = faulted.failures
        assert failure.kind == "crash"
        assert failure.index == 1
        assert failure.attempts == 2  # 1 first try + 1 retry, all killed
        # The exit code is read after the worker is reaped: never "None".
        assert failure.message == "worker exited with code 23"
        assert faulted.records[1] is None
        assert sum(r is not None for r in faulted.records) == 3
        # Degraded-result contract: every other cell matches the clean run.
        expected = [key for i, key in enumerate(clean.determinism_keys())
                    if i != 1]
        assert faulted.determinism_keys() == expected
        assert "failed cells (1):" in faulted.render()
        assert failure.render() in faulted.render()

    def test_poison_cell_reports_its_exit_code_under_spawn(self):
        faulted = self._faulted(
            "crash-cell=2x9", "spawn",
            supervision=SupervisionPolicy(cell_retries=0))
        (failure,) = faulted.failures
        assert (failure.index, failure.kind) == (2, "crash")
        assert failure.message == "worker exited with code 23"

    def test_stall_trips_cell_timeout_then_recovers(self, clean):
        faulted = self._faulted(
            "stall-cell=0:30", "fork",
            supervision=SupervisionPolicy(cell_timeout=0.5,
                                          backoff_base=0.01))
        assert faulted.determinism_keys() == clean.determinism_keys()
        assert faulted.cell_retries >= 1
        assert faulted.failures == ()

    def test_crash_fault_requires_a_pool(self):
        with pytest.raises(ValueError, match="worker pool"):
            run_grid(GRID_CONFIGS, seeds=GRID_SEEDS, metrics=METRICS,
                     faults=FaultPlan.parse("crash-cell=1"))


class TestShardedGridInPool:
    """Grid and shard parallelism nest: ``jobs=2`` over ``shards=2``
    cells starts shard workers from inside the grid workers and still
    equals the serial, unsharded oracle byte for byte — also when a
    grid worker is killed and its sharded cell retried."""

    CONFIGS = (sharded_config(name="heap"),
               sharded_config(name="standard", protocol="standard"))

    @pytest.fixture(scope="class")
    def oracle(self):
        return run_grid(self.CONFIGS, seeds=GRID_SEEDS, metrics=METRICS,
                        summaries=SPECS)

    @pytest.mark.parametrize("faults", (None, "crash-cell=1"))
    @pytest.mark.parametrize("start_method", ("fork", "spawn"))
    def test_matches_the_serial_unsharded_oracle(self, oracle, start_method,
                                                 faults):
        grid = run_grid([config.with_(shards=2) for config in self.CONFIGS],
                        seeds=GRID_SEEDS, metrics=METRICS, summaries=SPECS,
                        jobs=2, start_method=start_method, supervision=FAST,
                        faults=faults and FaultPlan.parse(faults))
        assert grid.render() == oracle.render()
        assert grid.determinism_keys() == oracle.determinism_keys()
        assert grid.summary_keys() == oracle.summary_keys()
        # Every cell really crossed shard boundaries ...
        assert all(record.wire["buffers"] > 0 for record in grid.records)
        assert (grid.cell_retries > 0) == (faults is not None)
        assert grid.failures == ()
        # ... and nothing it started is still around.
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Checkpoints: torn writes, repair, concurrent resumers
# ----------------------------------------------------------------------
class TestTornCheckpoint:
    @pytest.fixture(scope="class")
    def clean(self):
        return run_grid(GRID_CONFIGS, seeds=GRID_SEEDS, metrics=METRICS)

    def _tear(self, path: str) -> None:
        """Run the grid into a torn-checkpoint fault at record 1."""
        with pytest.raises(TornCheckpointInjected):
            run_grid(GRID_CONFIGS, seeds=GRID_SEEDS, metrics=METRICS,
                     checkpoint=path,
                     faults=FaultPlan.parse("torn-checkpoint=1"))

    def test_fault_tears_the_file_mid_line(self, tmp_path):
        path = str(tmp_path / "grid.jsonl")
        self._tear(path)
        text = (tmp_path / "grid.jsonl").read_text()
        assert not text.endswith("\n")  # genuinely torn, not just short
        # Header survives; the torn tail is dropped by the repair reader.
        with pytest.warns(RuntimeWarning, match="torn trailing line"):
            objects = read_jsonl(path, repair=True)
        assert objects[0]["format"].startswith("repro")

    def test_resume_repairs_and_matches_clean_run(self, tmp_path, clean):
        path = str(tmp_path / "grid.jsonl")
        self._tear(path)
        with pytest.warns(RuntimeWarning, match="torn trailing line"):
            resumed = run_grid(GRID_CONFIGS, seeds=GRID_SEEDS,
                               metrics=METRICS, checkpoint=path, resume=True)
        assert resumed.determinism_keys() == clean.determinism_keys()
        # The repaired file parses cleanly end to end and resumes again
        # warning-free.
        objects = read_jsonl(path)
        assert sorted(obj["index"] for obj in objects[1:]) == [0, 1, 2, 3]

    def test_resume_repairs_under_spawn_pool(self, tmp_path, clean):
        path = str(tmp_path / "grid.jsonl")
        self._tear(path)
        with pytest.warns(RuntimeWarning, match="torn trailing line"):
            resumed = run_grid(GRID_CONFIGS, seeds=GRID_SEEDS,
                               metrics=METRICS, checkpoint=path, resume=True,
                               jobs=2, start_method="spawn")
        assert resumed.determinism_keys() == clean.determinism_keys()

    def test_concurrent_resumers_stay_line_aligned(self, tmp_path, clean):
        """Two resumers of the same fingerprint race: one repairs the
        torn tail (truncating the file), while the other still holds an
        O_APPEND handle opened *before* the repair.  Appends through the
        stale handle land at the new EOF — never at the stale offset —
        so the file stays line-aligned and keeps resuming cleanly."""
        path = str(tmp_path / "grid.jsonl")
        self._tear(path)
        stale = open(path, "a", encoding="utf-8")
        try:
            with pytest.warns(RuntimeWarning, match="torn trailing line"):
                run_grid(GRID_CONFIGS, seeds=GRID_SEEDS, metrics=METRICS,
                         checkpoint=path, resume=True)
            # The second resumer finishes a cell and appends its record
            # through the pre-repair handle: a duplicate of record 0.
            objects = read_jsonl(path)
            record_0 = next(obj for obj in objects[1:] if obj["index"] == 0)
            stale.write(json.dumps(record_0) + "\n")
            stale.flush()
        finally:
            stale.close()
        # Every line still parses; the duplicate index is tolerated.
        objects = read_jsonl(path)
        assert [0, 1, 2, 3, 0] == [obj["index"] for obj in objects[1:]]
        again = run_grid(GRID_CONFIGS, seeds=GRID_SEEDS, metrics=METRICS,
                         checkpoint=path, resume=True)
        assert again.determinism_keys() == clean.determinism_keys()

    def test_torn_checkpoint_requires_checkpoint(self):
        with pytest.raises(ValueError, match="checkpoint"):
            run_grid(GRID_CONFIGS, seeds=GRID_SEEDS, metrics=METRICS,
                     faults=FaultPlan.parse("torn-checkpoint=1"))


# ----------------------------------------------------------------------
# Sharded scenarios: a dead or failing shard worker raises once
# ----------------------------------------------------------------------
class TestShardFailure:
    """The sharded driver has no fault hook; these tests patch
    ``_ShardRun.run_window`` in the parent, and the forked shard
    workers inherit the patch."""

    @staticmethod
    def _patch_window(monkeypatch, act):
        """Call ``act(run, window_index, outboxes)`` after every window."""
        run_window = _ShardRun.run_window
        windows = {}

        def patched(run, until):
            outboxes = run_window(run, until)
            index = windows[id(run)] = windows.get(id(run), -1) + 1
            act(run, index, outboxes)
            return outboxes

        monkeypatch.setattr(_ShardRun, "run_window", patched)

    def test_dead_worker_raises_exited(self, monkeypatch):
        def exit_shard_1(run, index, _outboxes):
            if run.router.shard_index == 1 and index == 3:
                os._exit(63)

        self._patch_window(monkeypatch, exit_shard_1)
        with pytest.raises(ShardFailure, match="shard 1 exited") as exc_info:
            run_sharded(sharded_config(shards=2), start_method="fork",
                        processes=True)
        failure = exc_info.value
        assert (failure.shard, failure.reason, failure.window_index,
                failure.last_barrier) == (1, "exited", 3, 2)
        assert failure.detail == "worker exit code 63"
        assert multiprocessing.active_children() == []

    def test_unreadable_wire_raises_failed(self, monkeypatch):
        def tear_shard_0(run, index, outboxes):
            if run.router.shard_index == 0 and index == 2:
                outboxes[1] = [b"torn"]

        self._patch_window(monkeypatch, tear_shard_0)
        with pytest.raises(ShardFailure, match="shard 1 failed") as exc_info:
            run_sharded(sharded_config(shards=2), start_method="fork",
                        processes=True)
        failure = exc_info.value
        assert failure.reason == "failed"
        assert failure.window_index == 3
        assert "UnpicklingError" in failure.detail
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# CLI: chaos sweeps print identical results plus recovery evidence
# ----------------------------------------------------------------------
class TestCliChaos:
    ARGS = ["sweep", "--protocols", "heap,standard", "--nodes", "10",
            "--seconds", "2", "--drain", "4", "--num-seeds", "2", "--quiet"]

    def test_faulted_sweep_stdout_matches_clean(self, capsys):
        from repro.cli import main

        assert main(self.ARGS) == 0
        clean = capsys.readouterr().out
        assert main(self.ARGS + ["--jobs", "2", "--faults",
                                 "crash-cell=1"]) == 0
        captured = capsys.readouterr()
        assert captured.out == clean
        assert "supervision: recovered" in captured.err

    def test_run_rejects_cell_faults(self, capsys):
        from repro.cli import main

        # `run` is one in-process cell: no pool to crash, so no --faults.
        with pytest.raises(SystemExit) as exc:
            main(["run", "--nodes", "10", "--seconds", "2", "--drain", "4",
                  "--faults", "crash-cell=1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --faults" in capsys.readouterr().err

    def test_sweep_refuses_a_repeated_clause(self, capsys):
        from repro.cli import main

        assert main(self.ARGS + ["--faults",
                                 "torn-checkpoint=1,torn-checkpoint=5"]) == 2
        assert "'torn-checkpoint=5': a second torn-checkpoint" in \
            capsys.readouterr().err
