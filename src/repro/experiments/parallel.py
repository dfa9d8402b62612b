"""Parallel scenario×seed experiment engine.

The paper's figures are multi-seed averages over many scenario variants;
running those grids serially on one core is the single largest wall-clock
cost of reproducing them.  This module fans a scenario×seed grid out
across worker processes while keeping the results *bit-identical* to a
serial run:

* every cell of the grid is an independent ``(ScenarioConfig, seed)``
  task — simulations share no state, so parallelism cannot change any
  result, only its arrival order;
* tasks travel to workers as pickles (``ScenarioConfig`` is a plain
  dataclass, so this is spawn-safe); the serial path pickles the config
  too, which both exercises picklability on every run and gives churn
  objects the same fresh-copy semantics workers get;
* workers return compact :class:`RunRecord` values — metric scalars,
  run counters and the requested :class:`~repro.metrics.summary.MetricSpec`
  summaries, never the full ``ExperimentResult`` — so result transfer
  stays cheap at any grid size;
* records are merged by grid position, not completion order, so the
  aggregate output of ``--jobs 8`` is byte-identical to ``--jobs 1``;
* with ``checkpoint=`` the engine appends each finished record to a
  JSONL file as it lands, and ``resume=True`` reloads finished cells so
  a killed run restarts where it stopped instead of from scratch.

Usage::

    from repro.experiments.parallel import run_grid
    from repro.experiments.multi_seed import metric_offline_delivery

    grid = run_grid(
        [ScenarioConfig(protocol="heap"), ScenarioConfig(protocol="standard")],
        seeds=range(1, 9),
        metrics={"delivery": metric_offline_delivery},
        jobs=4,
        checkpoint="sweep.jsonl", resume=True,
    )
    print(grid.render())

or from the command line::

    python -m repro sweep --protocols heap,standard --num-seeds 8 --jobs 4 \
        --checkpoint sweep.jsonl --resume

Metrics and summary specs must be picklable (module-level functions, or
``functools.partial`` over them) when workers are used.  Progress is
reported through an optional callback as tasks finish (restored
checkpoint records report first, in grid order).

The workers are a :class:`~repro.faults.pool.SupervisedPool`: a worker
that dies or overruns its deadline costs its cell a retry on a fresh
worker, never the sweep.  They are ordinary processes, so a cell whose
scenario is itself sharded (``config.shards > 1``) starts its shard
workers from inside its grid worker — ``jobs=N`` over ``shards=M``
cells runs up to N x M shard processes, with the same bytes out.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import multiprocessing
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Optional, Sequence, Tuple)

from repro.experiments.multi_seed import AggregatedMetric
from repro.experiments.runner import ExperimentResult, run_scenario
from repro.faults.failures import (CellFailure, TornCheckpointInjected,
                                   render_failures)
from repro.faults.inject import apply_cell_fault
from repro.faults.policy import SupervisionPolicy
from repro.faults.pool import SupervisedPool, Tenant
from repro.faults.supervise import default_start_method
from repro.metrics.export import append_jsonl, read_jsonl
from repro.metrics.summary import MetricSpec, summarize
from repro.net.stats import WIRE_SUMMARY_KEYS
from repro.workloads.scenario import ScenarioConfig, scenario_key

#: A metric maps a finished run to one scalar.
Metric = Callable[[ExperimentResult], float]

#: Progress callback: invoked with one :class:`ProgressEvent` per
#: finished (or checkpoint-restored) cell, on the coordinator thread.
ProgressCallback = Callable[["ProgressEvent"], None]

#: Header line identifying a grid checkpoint file.
CHECKPOINT_FORMAT = "repro-grid-checkpoint-v1"


class CheckpointError(ValueError):
    """A checkpoint file cannot be resumed (wrong grid, wrong format, or
    damaged beyond the tolerated trailing truncation)."""


@dataclass
class RunRecord:
    """Compact, picklable result of one (scenario, seed) cell."""

    scenario_index: int
    scenario_name: str
    seed_index: int
    seed: int
    #: metric name -> scalar value, in the caller's metric order.
    metrics: Dict[str, float]
    events_executed: int
    sim_end_time: float
    #: Worker wall-clock seconds; excluded from determinism comparisons.
    wall_time: float = field(compare=False)
    #: spec name -> compact summary value (JSON-able: the in-worker
    #: reductions of the receiver logs a figure asked for).  Excluded
    #: from ``==`` because a JSONL round trip turns tuples into lists;
    #: compare through :meth:`summary_key` instead.
    summaries: Dict[str, object] = field(default_factory=dict, compare=False)
    #: The run's merged cross-shard wire counters
    #: (:meth:`repro.net.stats.NetworkStats.wire_summary`; all-zero for
    #: unsharded cells).  Deterministic, but excluded from ``==`` so
    #: records from checkpoints written before this field existed still
    #: compare equal to fresh ones.
    wire: Dict[str, int] = field(default_factory=dict, compare=False)

    def determinism_key(self) -> tuple:
        """Everything that must be identical across serial/parallel runs."""
        return (self.scenario_index, self.scenario_name, self.seed_index,
                self.seed, tuple(self.metrics.items()),
                self.events_executed, self.sim_end_time)

    def summary_key(self) -> str:
        """Canonical JSON of the summaries: stable across JSONL round
        trips (tuples and lists serialize identically), so fresh and
        resumed records compare equal."""
        import json

        return json.dumps(self.summaries, sort_keys=True)

    def to_jsonable(self) -> dict:
        return {
            "scenario_index": self.scenario_index,
            "scenario_name": self.scenario_name,
            "seed_index": self.seed_index,
            "seed": self.seed,
            "metrics": self.metrics,
            "events_executed": self.events_executed,
            "sim_end_time": self.sim_end_time,
            "wall_time": self.wall_time,
            "summaries": self.summaries,
            "wire": self.wire,
        }

    @classmethod
    def from_jsonable(cls, obj: dict) -> "RunRecord":
        return cls(scenario_index=obj["scenario_index"],
                   scenario_name=obj["scenario_name"],
                   seed_index=obj["seed_index"],
                   seed=obj["seed"],
                   metrics=dict(obj["metrics"]),
                   events_executed=obj["events_executed"],
                   sim_end_time=obj["sim_end_time"],
                   wall_time=obj["wall_time"],
                   summaries=dict(obj.get("summaries", {})),
                   # Only counters that still exist: a record from an
                   # older checkpoint may carry retired ones, which a
                   # resumed job would sum over its restored cells alone.
                   wire={key: value
                         for key, value in obj.get("wire", {}).items()
                         if key in WIRE_SUMMARY_KEYS})


@dataclass(frozen=True)
class ProgressEvent:
    """One structured progress tick of a grid run.

    This is the *documented* event API every progress consumer shares —
    the CLI progress line, the service control plane's SSE stream and
    the tests all receive the same value.  Events fire on the
    coordinator thread (never inside a worker process — the S201
    sink-contract exemption for ``run_grid(progress=...)`` relies on
    that), once per cell: checkpoint-restored cells first, in grid
    order, with ``restored=True``, then fresh cells as they land.
    """

    #: Cells finished so far (restored + executed), and the grid total.
    done: int
    total: int
    #: The cell that just finished.
    record: RunRecord
    #: The cell's scenario value-identity — the same
    #: :func:`~repro.workloads.scenario.scenario_key` string the cell
    #: dedupe and checkpoint fingerprints use, so consumers can correlate
    #: progress with checkpointed state.
    cell_key: str
    #: True when the cell was reloaded from a checkpoint rather than
    #: executed (resume accounting: ``executed == total - restored``).
    restored: bool = False

    @property
    def events_per_sec(self) -> float:
        """Simulator event throughput of the cell's run (0 if unknown)."""
        if self.record.wall_time <= 0:
            return 0.0
        return self.record.events_executed / self.record.wall_time

    def to_jsonable(self) -> dict:
        """Flat JSON view (what the service streams over SSE)."""
        record = self.record
        return {
            "done": self.done,
            "total": self.total,
            "restored": self.restored,
            "cell_key": self.cell_key,
            "scenario_index": record.scenario_index,
            "scenario_name": record.scenario_name,
            "seed_index": record.seed_index,
            "seed": record.seed,
            "events_executed": record.events_executed,
            "wall_time": record.wall_time,
            "events_per_sec": self.events_per_sec,
            "metrics": record.metrics,
            "wire": record.wire,
        }


class GridResult:
    """All records of one grid run, in deterministic grid order."""

    def __init__(self, configs: Sequence[ScenarioConfig], seeds: Sequence,
                 metric_names: Sequence[str], records: List[RunRecord],
                 jobs: int, wall_time: float,
                 failures: Sequence[CellFailure] = (),
                 cell_retries: int = 0):
        self.configs = list(configs)
        #: ``[None]`` marks an own-seed grid (each config ran under its
        #: embedded ``config.seed``; shape is scenarios × 1).
        self.seeds = list(seeds)
        self.metric_names = list(metric_names)
        #: Scenario-major, seed-minor — independent of completion order.
        #: A quarantined poison cell leaves ``None`` at its position (see
        #: ``failures``); every aggregation below tolerates that hole.
        self.records = records
        self.jobs = jobs
        #: Total wall-clock seconds for the whole grid (not deterministic).
        self.wall_time = wall_time
        #: Structured records of cells whose workers kept dying after the
        #: retry budget — the degraded-result contract: the sweep
        #: completed everything else and reports the holes here.
        self.failures: Tuple[CellFailure, ...] = tuple(failures)
        #: Worker-crash/stall retry attempts supervision recovered from
        #: (0 on a clean run; not deterministic — recovery evidence).
        self.cell_retries = cell_retries

    def records_for(self, scenario_index: int) -> List[RunRecord]:
        n = len(self.seeds)
        start = scenario_index * n
        return self.records[start:start + n]

    def aggregated_for(self, scenario_index: int):
        """Per-metric aggregation for one scenario: name -> AggregatedMetric."""
        records = [r for r in self.records_for(scenario_index) if r is not None]
        return {name: AggregatedMetric(name, [r.metrics[name] for r in records])
                for name in self.metric_names}

    def aggregated(self):
        """List of (config, {metric -> AggregatedMetric}) per scenario."""
        return [(config, self.aggregated_for(i))
                for i, config in enumerate(self.configs)]

    def determinism_keys(self) -> List[tuple]:
        return [record.determinism_key() for record in self.records
                if record is not None]

    def summary_keys(self) -> List[str]:
        return [record.summary_key() for record in self.records
                if record is not None]

    def render(self) -> str:
        """Deterministic text summary (identical for any ``jobs`` value).

        A faulted-but-recovered run renders byte-identically to a clean
        one: the failure block only appears when cells were actually
        quarantined.
        """
        lines = []
        for i, config in enumerate(self.configs):
            seeds = ([r.seed for r in self.records_for(i) if r is not None]
                     if self.seeds == [None] else list(self.seeds))
            label = config.name if len(self.configs) == 1 else f"[{i}] {config.name}"
            lines.append(f"{label}: protocol={config.protocol} "
                         f"n={config.n_nodes} duration={config.duration:g}s "
                         f"seeds={seeds}")
            for name, agg in self.aggregated_for(i).items():
                lines.append("  " + agg.summary())
        lines.extend(render_failures(self.failures))
        return "\n".join(lines)


def _run_cell(payload) -> Tuple[int, RunRecord]:
    """Run one grid cell: ``run_scenario``, its metrics and summaries.

    The result is plain data and dies with this call; the scenario's
    build graph — one big reference cycle of nodes, fabric and engine —
    is garbage, freed by nothing but the cyclic collector.
    ``Simulator.run`` pauses that collector, so the next cell's run
    would be over before a pass came due: every cell collects here,
    once, where its garbage is.  In a pool worker that pass walks only
    what the child made after freezing the heap it inherited or imported
    (``repro.faults.supervise._child_main``): the cell's objects, and
    nothing an earlier cell kept.  In-process it walks the caller's heap
    too, which this function never freezes.
    """
    (index, scenario_index, scenario_name, seed_index, config,
     metric_items, specs) = payload
    started = time.perf_counter()
    result = run_scenario(config)
    values = {name: metric(result) for name, metric in metric_items}
    summaries = summarize(result, specs)
    gc.collect()
    record = RunRecord(
        scenario_index=scenario_index,
        scenario_name=scenario_name,
        seed_index=seed_index,
        seed=config.seed,
        metrics=values,
        events_executed=result.sim.events_executed,
        sim_end_time=result.sim.now,
        # The collection is part of what the cell costs.
        wall_time=time.perf_counter() - started,
        summaries=summaries,
        wire=result.net.stats.wire_summary(),
    )
    return index, record


def _available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _check_spawn_importable(metric_items, specs_by_scenario) -> None:
    """Refuse functions spawn workers cannot import.

    A function defined in ``__main__`` (a script or REPL) pickles by
    reference in the parent but fails to *unpickle* in a spawn worker,
    whose ``__main__`` is a different module.  The worker dies reading
    its task, so the pool would retry the cell until its budget is
    spent and report a quarantined "crash" for what is a caller error.
    Fail loudly up front instead.
    """
    import functools

    def origin(fn):
        while isinstance(fn, functools.partial):
            fn = fn.func
        return getattr(fn, "__module__", None), getattr(fn, "__qualname__", fn)

    offenders = []
    for name, metric in metric_items:
        module, qualname = origin(metric)
        if module == "__main__":
            offenders.append(f"metric {name!r} ({qualname})")
    for specs in specs_by_scenario:
        for spec in specs:
            module, qualname = origin(spec.fn)
            if module == "__main__":
                offenders.append(f"summary spec {spec.name!r} ({qualname})")
    if offenders:
        raise ValueError(
            "spawn workers cannot import functions defined in __main__: "
            + "; ".join(offenders)
            + " — move them into a module, or use fork/serial execution")


def _specs_per_scenario(summaries, n_configs: int) -> List[Tuple[MetricSpec, ...]]:
    """Normalize the ``summaries`` argument to one spec tuple per scenario."""
    if summaries is None:
        return [()] * n_configs
    summaries = list(summaries)
    if not summaries:
        return [()] * n_configs
    if isinstance(summaries[0], MetricSpec):
        flat = tuple(summaries)
        return [flat] * n_configs
    per_scenario = [tuple(specs) for specs in summaries]
    if len(per_scenario) != n_configs:
        raise ValueError(f"need one spec sequence per scenario: got "
                         f"{len(per_scenario)} for {n_configs} scenarios")
    return per_scenario


def grid_fingerprint(configs: Sequence[ScenarioConfig], seeds,
                     metric_names: Sequence[str],
                     specs_per_scenario: Sequence[Sequence[MetricSpec]]) -> str:
    """Stable identity of a grid: which runs, which reductions.

    Everything that changes a record's *content* is covered — scenario
    value-keys, the seed axis, metric names, summary-spec names — so a
    checkpoint can refuse to resume a different grid.  Spec names encode
    their parameters by construction (see ``MetricSpec``).
    """
    blob = repr((
        tuple(scenario_key(config) for config in configs),
        tuple(seeds) if seeds is not None else None,
        tuple(metric_names),
        tuple(tuple(spec.name for spec in specs)
              for specs in specs_per_scenario),
    ))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _load_checkpoint(path: str, fingerprint: str,
                     total: int) -> Dict[int, RunRecord]:
    """Read finished cells from a checkpoint; index -> record.

    Raises :class:`CheckpointError` if the file belongs to a different
    grid or is damaged — a resume must never silently mix two
    experiments' records.  A torn trailing line (the writer was killed
    mid-append) is repaired in place — truncated with a warning — so the
    append that follows starts on a clean line boundary instead of
    gluing onto the partial record.
    """
    import json

    try:
        objects = read_jsonl(path, repair=True)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint {path} is damaged beyond a "
                              f"truncated last line: {exc}") from exc
    if not objects:
        return {}
    header = objects[0]
    if (not isinstance(header, dict)
            or header.get("format") != CHECKPOINT_FORMAT):
        raise CheckpointError(f"{path} is not a grid checkpoint")
    if header.get("fingerprint") != fingerprint:
        raise CheckpointError(
            f"checkpoint {path} belongs to a different grid "
            f"(scenarios, seeds or summary specs changed); "
            f"delete it or pass a fresh path")
    done: Dict[int, RunRecord] = {}
    for obj in objects[1:]:
        try:
            index = obj["index"]
            record = RunRecord.from_jsonable(obj["record"])
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"checkpoint {path} contains a "
                                  f"non-record line: {exc!r}") from exc
        if 0 <= index < total:
            done[index] = record
    return done


def run_grid(configs, seeds: Optional[Sequence[int]],
             metrics: Dict[str, Metric],
             jobs: int = 1, progress: Optional[ProgressCallback] = None,
             start_method: Optional[str] = None,
             summaries=None,
             checkpoint: Optional[str] = None,
             resume: bool = False,
             checkpoint_gc: bool = False,
             faults=None,
             supervision: Optional[SupervisionPolicy] = None,
             pool=None,
             ) -> GridResult:
    """Run every ``config`` under every seed and collect compact records.

    ``configs`` may be a single :class:`ScenarioConfig` or a sequence.
    ``seeds=None`` runs each config under its own embedded ``config.seed``
    (an N×1 grid — what the figure pipeline uses).  ``jobs`` <= 1 runs
    serially in-process; larger values fan the grid out over a
    :class:`~repro.faults.pool.SupervisedPool` of worker processes —
    except on a single-CPU host, where workers could only add overhead
    (~9 % measured) and are bypassed unless ``start_method`` is given
    explicitly (tests use that to force the pool path).  A cell whose
    scenario is *sharded* (``config.shards > 1``) starts its own shard
    workers wherever it runs, a grid worker included.  ``summaries``
    requests in-worker :class:`~repro.metrics.summary.MetricSpec`
    reductions: either one sequence applied to every scenario, or one
    sequence *per* scenario.
    ``checkpoint`` appends each finished record to a JSONL file;
    ``resume=True`` reloads finished cells from it (validated by grid
    fingerprint) so only the remainder runs.  ``checkpoint_gc=True``
    turns on housekeeping for managed checkpoint files (the CLI's
    ``--checkpoint-dir`` mode): a resume against a stale checkpoint —
    fingerprint mismatch or damage beyond trailing truncation — is
    garbage-collected and the grid starts fresh instead of erroring, and
    the checkpoint is deleted after the grid completes successfully (a
    spent checkpoint can only ever shadow a future run).  Results are
    merged in grid order, so the outcome is bit-identical for any
    ``jobs`` value — only the wall time changes.

    ``pool`` (a :class:`~repro.faults.pool.Tenant` of a long-lived
    ``SupervisedPool`` over :func:`_run_cell`, whose ``stop`` raises
    ``RunStopped`` here) runs every cell, whatever ``jobs`` says.
    ``faults`` takes a :class:`~repro.faults.plan.FaultPlan` whose cell
    and checkpoint clauses are injected deterministically; ``supervision``
    tunes the run's :class:`~repro.faults.policy.SupervisionPolicy`
    (retry budget, backoff, per-attempt timeout).  Every one of these
    values refused itself when it was built, so the one check left here
    is the one no single value can make: a ``torn-checkpoint`` clause
    needs ``checkpoint=``.  A crashed or wedged worker costs a
    retry, never the sweep: a cell that out-dies its budget becomes a
    structured :class:`~repro.faults.failures.CellFailure` on the result
    while every other cell completes.
    """
    if isinstance(configs, ScenarioConfig):
        configs = [configs]
    configs = list(configs)
    if not configs:
        raise ValueError("need at least one scenario config")
    if (faults is not None and faults.torn_checkpoint is not None
            and checkpoint is None):
        raise ValueError("torn-checkpoint fault injection needs "
                         "checkpoint= (there is no file to tear)")
    if seeds is not None:
        seeds = list(seeds)
        if not seeds:
            raise ValueError("need at least one seed")
    metric_items = tuple(metrics.items())
    metric_names = [name for name, _ in metric_items]
    specs_by_scenario = _specs_per_scenario(summaries, len(configs))

    payloads = []
    for scenario_index, config in enumerate(configs):
        specs = specs_by_scenario[scenario_index]
        if seeds is None:
            payloads.append((len(payloads), scenario_index, config.name, 0,
                             config, metric_items, specs))
        else:
            for seed_index, seed in enumerate(seeds):
                payloads.append((
                    len(payloads), scenario_index, config.name, seed_index,
                    config.with_(seed=seed), metric_items, specs,
                ))

    total = len(payloads)
    records: List[Optional[RunRecord]] = [None] * total
    started = time.perf_counter()

    # ------------------------------------------------------------------
    # checkpoint: restore finished cells, then append fresh ones.
    # ------------------------------------------------------------------
    checkpoint_fh = None
    done = 0
    if checkpoint is not None:
        fingerprint = grid_fingerprint(configs, seeds, metric_names,
                                       specs_by_scenario)
        restored: Dict[int, RunRecord] = {}
        if resume and os.path.exists(checkpoint):
            try:
                restored = _load_checkpoint(checkpoint, fingerprint, total)
            except CheckpointError as exc:
                if not checkpoint_gc:
                    raise
                import sys

                print(f"checkpoint-gc: discarding stale checkpoint "
                      f"{checkpoint} ({exc})", file=sys.stderr)
        parent = os.path.dirname(checkpoint)
        if parent:
            os.makedirs(parent, exist_ok=True)
        if restored:
            checkpoint_fh = open(checkpoint, "a", encoding="utf-8")
        else:
            checkpoint_fh = open(checkpoint, "w", encoding="utf-8")
            append_jsonl(checkpoint_fh, {"format": CHECKPOINT_FORMAT,
                                         "fingerprint": fingerprint,
                                         "total": total})
        for index in sorted(restored):
            records[index] = restored[index]
            done += 1
            if progress is not None:
                progress(ProgressEvent(
                    done=done, total=total, record=restored[index],
                    cell_key=scenario_key(payloads[index][4]),
                    restored=True))

    pending = [p for p in payloads if records[p[0]] is None]
    failures: List[CellFailure] = []
    cell_retries = 0
    fresh_appends = 0

    def finish(index: int, record: RunRecord) -> None:
        nonlocal done, fresh_appends
        records[index] = record
        done += 1
        if checkpoint_fh is not None:
            append_jsonl(checkpoint_fh,
                         {"index": index, "record": record.to_jsonable()})
            fresh_appends += 1
            if (faults is not None
                    and faults.torn_checkpoint == fresh_appends):
                checkpoint_fh.flush()
                _tear_checkpoint_tail(checkpoint)
                raise TornCheckpointInjected(checkpoint, index)
        if progress is not None:
            progress(ProgressEvent(done=done, total=total, record=record,
                                   cell_key=scenario_key(payloads[index][4])))

    # A pool on a 1-CPU host is pure overhead; run in-process unless the
    # caller pinned a start method (the parity tests do, to force the
    # pool path regardless of host) or brought a pool of its own.
    crash_faults = bool(faults and faults.crash_cells)
    serial = pool is None and (
        jobs <= 1 or len(pending) <= 1
        or (start_method is None and not crash_faults
            and _available_cpus() <= 1))
    if crash_faults and serial:
        raise ValueError(
            "worker-crash fault injection needs a worker pool: pass "
            "jobs > 1 on a grid with 2+ pending cells")
    try:
        if serial:
            for payload in pending:
                # The config rides through pickle exactly as it would to
                # a worker: same spawn-safety guarantees, and stateful
                # churn objects get a fresh copy per run here too.
                config = pickle.loads(pickle.dumps(payload[4]))
                payload = payload[:4] + (config,) + payload[5:]
                if faults is not None:
                    # Only stall faults reach the serial path (crash
                    # faults required the pool above): the cell simply
                    # runs late, which is what per-attempt timeouts and
                    # the service watchdog are supervised against.
                    apply_cell_fault(faults.cell_fault(payload[0], 0))
                finish(*_run_cell(payload))
        else:
            with contextlib.ExitStack() as stack:
                if pool is None:
                    method = start_method or default_start_method()
                    if method == "spawn":
                        _check_spawn_importable(metric_items,
                                                specs_by_scenario)
                    pool = Tenant(stack.enter_context(contextlib.closing(
                        SupervisedPool(multiprocessing.get_context(method),
                                       min(jobs, len(pending)), _run_cell))))
                outcomes = stack.enter_context(contextlib.closing(pool.run(
                    [(p[0], p) for p in pending], policy=supervision,
                    fault_for=(faults.cell_fault if faults is not None
                               else None))))
                for outcome in outcomes:
                    if outcome[0] == "ok":
                        finish(*outcome[2])
                    elif outcome[0] == "retry":
                        cell_retries += 1
                    else:
                        _tag, key, kind, attempts, message = outcome
                        payload = payloads[key]
                        failures.append(CellFailure(
                            index=key, scenario_index=payload[1],
                            scenario_name=payload[2], seed_index=payload[3],
                            seed=payload[4].seed, kind=kind,
                            attempts=attempts, message=message))
    finally:
        if checkpoint_fh is not None:
            checkpoint_fh.close()
    if checkpoint_gc and checkpoint is not None:
        # The grid completed: its checkpoint is spent.  Leaving it around
        # could only shadow a future (changed) grid with a mismatched
        # fingerprint, so managed checkpoints are collected on success.
        try:
            os.remove(checkpoint)
        except OSError:  # pragma: no cover - already gone / perms
            pass
    wall = time.perf_counter() - started
    return GridResult(configs, seeds if seeds is not None else [None],
                      metric_names, records, jobs, wall,
                      failures=failures, cell_retries=cell_retries)


def _tear_checkpoint_tail(path: str) -> None:
    """Truncate the checkpoint mid-way through its last line.

    This is the torn-checkpoint-write fault: the file ends exactly the
    way it would if the writing process had been killed inside a
    ``write`` — a partial JSON line with no trailing newline — which is
    the damage ``read_jsonl(repair=True)`` must repair on resume.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    line_start = data.rstrip(b"\n").rfind(b"\n") + 1
    torn = line_start + max(1, (len(data) - line_start) // 2)
    with open(path, "r+b") as fh:
        fh.truncate(torn)
