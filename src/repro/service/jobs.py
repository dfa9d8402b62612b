"""Async job manager: the engine half of the service control plane.

A :class:`JobManager` owns a bounded submission queue, N executor
threads, and the process-wide warm state every job shares — the
scenario-result cache (``cached_run``), the grid summary cache
(:mod:`repro.experiments.gridrun`) and a managed checkpoint directory.
Jobs move ``queued -> running -> done | failed | cancelled``.

Durability comes from the checkpoint layer, not from any service-side
database: every grid-backed job binds to a JSONL checkpoint keyed by
its spec's fingerprint under the manager's checkpoint directory.  While
the job runs, each finished cell is appended (flush+fsync); on success
the spent checkpoint is garbage-collected; on cancel/crash it stays —
so resubmitting the *same spec* resumes from the finished cells (the
fingerprinted checkpoint *is* the durable job record).

Cancellation is cooperative at cell granularity: the executor checks
the job's cancel flag in the grid's progress callback, so a cancel
lands at the next finished cell (everything already checkpointed
survives for the resume).
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.parallel import ProgressEvent, run_grid
from repro.experiments.scales import _SCALES, cached_run
from repro.experiments.specs import RenderSpec, SweepSpec
from repro.metrics.export import write_grid_csv, write_result_csv

#: Everything a job can be asked to do.  ``run`` is a one-cell sweep;
#: the render kinds regenerate a registered figure/table/ablation.
JOB_KINDS = ("run", "sweep", "figure", "table", "ablation")

#: The job lifecycle, in order.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job can never leave.
TERMINAL_STATES = ("done", "failed", "cancelled")


class QueueFullError(RuntimeError):
    """The bounded submission queue is at capacity (HTTP 503)."""


class JobCancelled(Exception):
    """Raised inside the executor to unwind a cancelled grid run."""


class SpecQuarantined(RuntimeError):
    """A crash-looping spec is quarantined (HTTP 429 + Retry-After).

    Raised by :meth:`JobManager.submit` when the same fingerprint has
    failed ``quarantine_after`` times in a row and its backoff window
    has not yet elapsed."""

    def __init__(self, fingerprint: str, retry_after: float, failures: int):
        super().__init__(
            f"spec {fingerprint} is quarantined after {failures} "
            f"consecutive failure(s); retry in {retry_after:.0f}s")
        self.fingerprint = fingerprint
        self.retry_after = retry_after
        self.failures = failures


@dataclass(frozen=True)
class JobSpec:
    """What to run: a kind plus its JSON parameter mapping.

    The *normalized* parameters (defaults filled in, lists canonical)
    define the spec's :meth:`fingerprint`; execution knobs the manager
    owns (worker counts, checkpoint locations) are deliberately not part
    of a spec, so the same experiment always maps to the same
    checkpoint.
    """

    kind: str
    params: Dict[str, object] = field(default_factory=dict)

    def normalized(self) -> Dict[str, object]:
        """The canonical parameter mapping; raises ValueError on an
        invalid spec (unknown kind/parameters, bad scenario)."""
        if self.kind in ("run", "sweep"):
            spec = self.sweep_spec()
            spec.configs()  # full scenario validation, collected errors
            return spec.to_params()
        if self.kind in ("figure", "table", "ablation"):
            return self._render_normalized()
        raise ValueError(f"unknown job kind {self.kind!r}; "
                         f"known: {', '.join(JOB_KINDS)}")

    def sweep_spec(self) -> SweepSpec:
        """The grid description for ``run``/``sweep`` kinds."""
        if self.kind not in ("run", "sweep"):
            raise ValueError(f"{self.kind!r} jobs have no sweep spec")
        params = dict(self.params)
        if self.kind == "run":
            params.setdefault("num_seeds", 1)
        spec = SweepSpec.from_params(params)
        if self.kind == "run" and spec.cell_count() != 1:
            raise ValueError(f"a 'run' job is a single cell; this spec has "
                             f"{len(spec.protocols)} protocol(s) x "
                             f"{len(spec.seed_list())} seed(s) — submit it "
                             f"as kind 'sweep'")
        return spec

    def _render_normalized(self) -> Dict[str, object]:
        params = RenderSpec.from_params(self.params, self.kind).to_params()
        registry = _render_registry(self.kind)
        if params["id"] not in registry:
            raise ValueError(f"unknown {self.kind} id {params['id']!r}; "
                             f"known: {', '.join(sorted(registry))}")
        return params

    def fingerprint(self) -> str:
        """Stable workload identity: keys the managed checkpoint, so a
        resubmitted spec resumes where its predecessor stopped.

        ``faults`` is excluded (like :meth:`SweepSpec.fingerprint`):
        injection is an execution circumstance, so a faulted job and its
        clean twin share one checkpoint — and the quarantine ledger sees
        a crash-looping spec as one spec however its faults vary."""
        params = self.normalized()
        params.pop("faults", None)
        blob = json.dumps({"kind": "sweep" if self.kind == "run" else self.kind,
                           "params": params}, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def to_jsonable(self) -> Dict[str, object]:
        return {"kind": self.kind, "params": self.normalized()}


def _render_registry(kind: str) -> Dict[str, object]:
    """The CLI's artifact registry for a render kind (imported lazily:
    the CLI imports this package for its ``serve`` verb)."""
    from repro import cli

    return {"figure": cli.FIGURES, "table": cli.TABLES,
            "ablation": cli.ABLATIONS}[kind]


class Job:
    """One submitted workload and its observable state.

    All mutation happens under the owning manager's lock; HTTP threads
    only ever read (or wait on the manager's condition for new events).
    """

    def __init__(self, job_id: str, spec: JobSpec, fingerprint: str,
                 checkpoint: str, csv_path: str):
        self.id = job_id
        self.spec = spec
        self.fingerprint = fingerprint
        self.state = "queued"
        self.error: Optional[str] = None
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: Managed JSONL checkpoint this job appends to / resumes from.
        self.checkpoint = checkpoint
        #: CSV artifact path, written on completion.
        self.csv_path = csv_path
        self.cancel_event = threading.Event()
        #: Monotonic timestamp of the last observable progress (event
        #: append); the watchdog fails running jobs that stop moving.
        self.last_activity = time.monotonic()
        #: The executor thread currently running this job (watchdog
        #: bookkeeping: a wedged job's thread is abandoned + replaced).
        self.executor_thread: Optional[threading.Thread] = None
        #: Monotonic structured event log: progress ticks + state changes
        #: (what the SSE endpoint replays and follows).
        self.events: List[Dict[str, object]] = []
        self.cells_done = 0
        self.cells_total: Optional[int] = None
        self.cells_executed = 0
        self.cells_restored = 0
        #: Latest cell throughput (events/s), for status displays.
        self.events_per_sec = 0.0
        #: Wire counters accumulated across the job's cells.
        self.wire: Dict[str, int] = {}
        #: Result summary JSON, set when the job completes.
        self.result: Optional[Dict[str, object]] = None

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "kind": self.spec.kind,
            "params": self.spec.params,
            "fingerprint": self.fingerprint,
            "state": self.state,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "cells": {
                "done": self.cells_done,
                "total": self.cells_total,
                "executed": self.cells_executed,
                "restored": self.cells_restored,
            },
            "events_per_sec": self.events_per_sec,
            "wire": self.wire,
        }


class JobManager:
    """Bounded job queue + executor threads over the shared engine."""

    def __init__(self, checkpoint_dir: str = ".repro-service",
                 executors: int = 1, queue_size: int = 16,
                 grid_jobs: int = 1, cache_results: bool = True,
                 job_ttl: Optional[float] = None,
                 job_timeout: Optional[float] = None,
                 watchdog_interval: float = 0.25,
                 quarantine_after: int = 3,
                 quarantine_base: float = 30.0):
        self.checkpoint_dir = checkpoint_dir
        self.artifact_dir = os.path.join(checkpoint_dir, "artifacts")
        os.makedirs(self.artifact_dir, exist_ok=True)
        #: Evict terminal jobs (and their event buffers + CSV artifacts,
        #: never their checkpoints) this many seconds after they finish.
        self.job_ttl = job_ttl
        #: Fail-and-free a running job with no progress for this long.
        self.job_timeout = job_timeout
        self.quarantine_after = max(1, quarantine_after)
        self.quarantine_base = quarantine_base
        #: SSE client disconnects observed by the transport (health).
        self.sse_disconnects = 0
        #: Jobs the watchdog failed for lack of progress (health).
        self.watchdog_timeouts = 0
        #: job id -> human-readable reason (404 body for evicted ids).
        self._evicted: Dict[str, str] = {}
        #: fingerprint -> [consecutive failures, monotonic last failure].
        self._failure_ledger: Dict[str, List[float]] = {}
        #: Executor threads the watchdog wrote off as wedged; they exit
        #: at their next loop turn instead of taking new jobs.
        self._abandoned: set = set()
        #: Grid worker processes per job (1 = in-thread serial, which is
        #: what keeps the scenario-result cache warm).
        self.grid_jobs = max(1, grid_jobs)
        #: Serial sweep cells run through ``cached_run`` so overlapping
        #: grids from later jobs reuse full results.  Costs memory
        #: proportional to distinct scenarios; disable for huge grids.
        self.cache_results = cache_results
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue(
            maxsize=max(1, queue_size))
        self._lock = threading.RLock()
        #: Signalled on every job event append / state change.
        self.condition = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._next_id = 1
        self._stopping = False
        self._threads = [
            threading.Thread(target=self._worker, daemon=True,
                             name=f"repro-job-executor-{i}")
            for i in range(max(1, executors))
        ]
        for thread in self._threads:
            thread.start()
        self._watchdog_thread: Optional[threading.Thread] = None
        if job_ttl is not None or job_timeout is not None:
            self._watchdog_thread = threading.Thread(
                target=self._watchdog, daemon=True,
                name="repro-job-watchdog",
                args=(max(0.05, watchdog_interval),))
            self._watchdog_thread.start()

    # ------------------------------------------------------------------
    # public API (called from HTTP threads)
    # ------------------------------------------------------------------
    def submit(self, kind: str, params: Dict[str, object]
               ) -> Tuple[Job, bool]:
        """Validate, register and enqueue a job.

        Returns ``(job, created)``.  A spec identical to one already
        queued or running is *coalesced* onto the existing job
        (``created=False``) — two clients asking for the same grid share
        one execution and both watch the same stream.  Raises
        ``ValueError`` for an invalid spec and :class:`QueueFullError`
        when the bounded queue is at capacity.
        """
        spec = JobSpec(kind=kind, params=dict(params or {}))
        fingerprint = spec.fingerprint()  # validates; may raise ValueError
        with self._lock:
            if self._stopping:
                raise QueueFullError("manager is shutting down")
            self._check_quarantine(fingerprint)
            for job_id in reversed(self._order):
                existing = self._jobs[job_id]
                if (existing.fingerprint == fingerprint
                        and existing.state in ("queued", "running")):
                    return existing, False
            job = Job(
                job_id=f"j{self._next_id:04d}",
                spec=spec,
                fingerprint=fingerprint,
                checkpoint=os.path.join(self.checkpoint_dir,
                                        f"job-{fingerprint}.jsonl"),
                csv_path=os.path.join(self.artifact_dir,
                                      f"j{self._next_id:04d}.csv"),
            )
            try:
                self._queue.put_nowait(job)
            except queue.Full:
                raise QueueFullError(
                    f"submission queue is full "
                    f"({self._queue.maxsize} jobs)") from None
            self._next_id += 1
            self._jobs[job.id] = job
            self._order.append(job.id)
            self._append_event(job, {"type": "state", "state": "queued"})
        return job, True

    def get(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job {job_id!r}") from None

    def jobs(self) -> List[Job]:
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def counts(self) -> Dict[str, int]:
        with self._lock:
            counts = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                counts[job.state] += 1
            return counts

    def cancel(self, job_id: str) -> Job:
        """Request cancellation.  Queued jobs cancel immediately; running
        jobs cancel at the next finished cell (their checkpoint stays on
        disk, so the same spec resumes later)."""
        with self._lock:
            job = self.get(job_id)
            if job.state == "queued":
                job.cancel_event.set()
                self._finish(job, "cancelled")
            elif job.state == "running":
                job.cancel_event.set()
            return job

    def eviction_reason(self, job_id: str) -> Optional[str]:
        """Why a (now unknown) job id answers 404, if it was evicted."""
        with self._lock:
            return self._evicted.get(job_id)

    def note_sse_disconnect(self) -> None:
        """Transport callback: an SSE client went away mid-stream."""
        with self._lock:
            self.sse_disconnects += 1

    def evicted_count(self) -> int:
        with self._lock:
            return len(self._evicted)

    def quarantined_count(self) -> int:
        """Fingerprints currently at or past the quarantine threshold."""
        with self._lock:
            return sum(1 for entry in self._failure_ledger.values()
                       if entry[0] >= self.quarantine_after)

    def events_since(self, job: Job, index: int,
                     timeout: float = 0.5) -> List[Dict[str, object]]:
        """Events after ``index``; blocks up to ``timeout`` if none yet
        (the SSE follow loop)."""
        with self.condition:
            if len(job.events) <= index:
                self.condition.wait(timeout)
            return list(job.events[index:])

    def shutdown(self, cancel_running: bool = True) -> None:
        with self._lock:
            self._stopping = True
            if cancel_running:
                for job in self._jobs.values():
                    if job.state in ("queued", "running"):
                        job.cancel_event.set()
        for _ in self._threads:
            try:
                self._queue.put_nowait(None)
            except queue.Full:  # executors will still see _stopping
                break
        with self._lock:
            abandoned = set(self._abandoned)
        for thread in self._threads:
            if thread in abandoned:
                continue  # wedged; daemon thread, dies with the process
            thread.join(timeout=10.0)

    # ------------------------------------------------------------------
    # executor side
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        me = threading.current_thread()
        while True:
            job = self._queue.get()
            with self._lock:
                if me in self._abandoned:
                    # The watchdog wrote this thread off as wedged and
                    # spawned a replacement; hand any claimed job back
                    # and bow out.
                    self._abandoned.discard(me)
                    if job is not None and job.state == "queued":
                        try:
                            self._queue.put_nowait(job)
                        except queue.Full:
                            job.error = "executor lost during hand-off"
                            self._finish(job, "failed")
                    return
            if job is None:
                return
            with self._lock:
                if job.state != "queued":  # cancelled while queued
                    continue
                if self._stopping:
                    self._finish(job, "cancelled")
                    continue
                job.state = "running"
                job.started_at = time.time()
                job.last_activity = time.monotonic()
                job.executor_thread = me
                self._append_event(job, {"type": "state", "state": "running"})
            try:
                result = self._execute(job)
            except JobCancelled:
                with self._lock:
                    if job.state not in TERMINAL_STATES:
                        self._finish(job, "cancelled")
            except Exception as exc:  # noqa: BLE001 - job isolation barrier
                with self._lock:
                    if job.state not in TERMINAL_STATES:
                        job.error = f"{type(exc).__name__}: {exc}"
                        self._finish(job, "failed")
            else:
                with self._lock:
                    # The watchdog may have already failed a wedged job;
                    # a late result must not resurrect it.
                    if job.state not in TERMINAL_STATES:
                        job.result = result
                        self._finish(job, "done")
            with self._lock:
                job.executor_thread = None
                if me in self._abandoned:
                    self._abandoned.discard(me)
                    return

    def _execute(self, job: Job) -> Dict[str, object]:
        if job.spec.kind in ("run", "sweep"):
            return self._execute_grid(job)
        return self._execute_render(job)

    def _progress_sink(self, job: Job):
        """The coordinator-local progress callback for ``job``'s grid.

        Doubles as the cancellation point: raising here unwinds
        ``run_grid`` after the in-flight cell was checkpointed."""
        def progress(event: ProgressEvent) -> None:
            if job.cancel_event.is_set():
                raise JobCancelled(job.id)
            with self._lock:
                job.cells_done = event.done
                job.cells_total = event.total
                if event.restored:
                    job.cells_restored += 1
                else:
                    job.cells_executed += 1
                    job.events_per_sec = event.events_per_sec
                for name, value in event.record.wire.items():
                    job.wire[name] = job.wire.get(name, 0) + value
                self._append_event(job, {"type": "progress",
                                         **event.to_jsonable()})
        return progress

    def _execute_grid(self, job: Job) -> Dict[str, object]:
        spec = job.spec.sweep_spec()
        jobs = self.grid_jobs
        if spec.shards > 1:
            jobs = 1  # sharded cells own their worker processes
        grid = run_grid(
            spec.configs(), spec.seed_list(), spec.metrics(),
            jobs=jobs,
            progress=self._progress_sink(job),
            checkpoint=job.checkpoint, resume=True, checkpoint_gc=True,
            run_fn=cached_run if self.cache_results else None,
            faults=spec.fault_plan(),
        )
        write_grid_csv(job.csv_path, grid)
        return grid_result_jsonable(job.spec.kind, grid)

    def _execute_render(self, job: Job) -> Dict[str, object]:
        from repro.experiments import gridrun

        params = job.spec.normalized()
        registry = _render_registry(job.spec.kind)
        fn = registry[params["id"]]
        scale = _SCALES[params["scale"]] if params["scale"] else None
        with _RENDER_LOCK:
            # gridrun options are process-global; renders serialize so
            # two figure jobs can't interleave configure() calls.
            saved = vars(gridrun.current_options()).copy()
            gridrun.configure(
                jobs=self.grid_jobs,
                checkpoint=job.checkpoint, resume=True, checkpoint_gc=True,
                shards=params["shards"],
                latency_floor=params["latency_floor"],
                progress=self._progress_sink(job))
            try:
                rendered = fn(scale)
            finally:
                gridrun.configure(**saved)
        write_result_csv(job.csv_path, rendered)
        return {
            "kind": job.spec.kind,
            "id": params["id"],
            "scale": params["scale"],
            "render": rendered.render(),
            "headers": list(rendered.headers),
            "rows": [list(row) for row in rendered.rows],
        }

    # ------------------------------------------------------------------
    # supervision: watchdog, TTL eviction, spec quarantine
    # ------------------------------------------------------------------
    def _watchdog(self, interval: float) -> None:
        """Background sweep: fail wedged jobs, evict expired ones."""
        while True:
            time.sleep(interval)
            with self._lock:
                if self._stopping:
                    return
                if self.job_timeout is not None:
                    self._sweep_wedged()
                if self.job_ttl is not None:
                    self._sweep_expired()

    def _sweep_wedged(self) -> None:
        """Fail running jobs with no progress for ``job_timeout`` and
        free their executor slots (lock held)."""
        now = time.monotonic()
        for job in list(self._jobs.values()):
            if job.state != "running":
                continue
            if now - job.last_activity <= self.job_timeout:
                continue
            self.watchdog_timeouts += 1
            job.error = (f"watchdog: no progress for "
                         f"{self.job_timeout:g}s")
            job.cancel_event.set()
            self._finish(job, "failed")
            thread = job.executor_thread
            if thread is not None and thread.is_alive():
                # The thread is wedged inside the job; write it off and
                # staff a replacement so throughput recovers even if it
                # never comes back.
                self._abandoned.add(thread)
                replacement = threading.Thread(
                    target=self._worker, daemon=True,
                    name=f"{thread.name}-replacement")
                self._threads.append(replacement)
                replacement.start()

    def _sweep_expired(self) -> None:
        """Evict terminal jobs past their TTL (lock held).  Event
        buffers and CSV artifacts go; managed checkpoints stay — they
        are the durable record a resubmitted spec resumes from."""
        now = time.time()
        for job_id in list(self._order):
            job = self._jobs[job_id]
            if job.state not in TERMINAL_STATES or job.finished_at is None:
                continue
            if now - job.finished_at <= self.job_ttl:
                continue
            del self._jobs[job_id]
            self._order.remove(job_id)
            self._evicted[job_id] = (
                f"finished ({job.state}) more than "
                f"{self.job_ttl:g}s ago (--job-ttl)")
            try:
                os.remove(job.csv_path)
            except OSError:
                pass  # never written, or already gone

    def _check_quarantine(self, fingerprint: str) -> None:
        """Reject a crash-looping spec inside its backoff window (lock
        held).  Raises :class:`SpecQuarantined` with the remaining wait."""
        entry = self._failure_ledger.get(fingerprint)
        if entry is None or entry[0] < self.quarantine_after:
            return
        failures, last_failure = int(entry[0]), entry[1]
        backoff = self.quarantine_base * (
            2.0 ** (failures - self.quarantine_after))
        remaining = backoff - (time.monotonic() - last_failure)
        if remaining > 0:
            raise SpecQuarantined(fingerprint, remaining, failures)

    # ------------------------------------------------------------------
    # internals (call with the lock held)
    # ------------------------------------------------------------------
    def _append_event(self, job: Job, event: Dict[str, object]) -> None:
        event = dict(event)
        event["job"] = job.id
        event["seq"] = len(job.events)
        job.events.append(event)
        job.last_activity = time.monotonic()
        self.condition.notify_all()

    def _finish(self, job: Job, state: str) -> None:
        job.state = state
        job.finished_at = time.time()
        if state == "failed":
            entry = self._failure_ledger.setdefault(job.fingerprint,
                                                    [0, 0.0])
            entry[0] += 1
            entry[1] = time.monotonic()
        elif state == "done":
            self._failure_ledger.pop(job.fingerprint, None)
        self._append_event(job, {"type": "state", "state": state,
                                 "error": job.error})


#: Figure/table/ablation renders mutate process-global gridrun options.
_RENDER_LOCK = threading.Lock()


def grid_result_jsonable(kind: str, grid) -> Dict[str, object]:
    """A GridResult as result JSON: the deterministic content (render
    text, per-record values) plus a clearly-separated ``timing`` block
    for the measured parts."""
    wire: Dict[str, int] = {}
    for record in grid.records:
        if record is None:  # cell quarantined by fault supervision
            continue
        for name, value in record.wire.items():
            wire[name] = wire.get(name, 0) + value
    return {
        "kind": kind,
        "render": grid.render(),
        "metric_names": list(grid.metric_names),
        "scenarios": [config.name for config in grid.configs],
        "seeds": list(grid.seeds),
        "records": [record.to_jsonable() if record is not None else None
                    for record in grid.records],
        "failures": [failure.to_jsonable() for failure in grid.failures],
        "cell_retries": grid.cell_retries,
        "wire": wire,
        "timing": {"wall_time": grid.wall_time, "jobs": grid.jobs},
    }
