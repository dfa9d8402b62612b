"""Async job manager: the engine half of the service control plane.

A :class:`JobManager` owns a bounded submission queue, a managed
checkpoint directory and **one** long-lived
:class:`~repro.faults.pool.SupervisedPool` of ``executors`` workers,
forked in its constructor before any thread starts: every cell of every
job runs there.  ``executors`` threads take jobs off the queue; a job's
coordinator is plain ``run_grid`` (or ``render``) on its thread, which
reaches the pool through a per-job :class:`~repro.faults.pool.Tenant`
passed as ``pool=``.  Jobs move ``queued -> running -> done | failed |
cancelled``; a spec already queued, running or retained ``done`` is
answered by that job.

Durability is the checkpoint layer's: a grid-backed job appends each
finished cell to a JSONL checkpoint keyed by its spec's fingerprint,
collected on success and kept on cancel/crash, so resubmitting the same
spec resumes from the finished cells — once the stopped job's thread
has closed that file.  Cancel and the ``job_timeout`` watchdog (run by
the housekeeping thread, which also evicts expired jobs) share one stop
path: set the job's state, then stop its tenant, which kills the job's
busy workers wherever they are; the pool replaces them, and other jobs'
cells are not touched.
"""

from __future__ import annotations

import functools
import hashlib
import json
import multiprocessing
import os
import queue
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.artifacts import artifact, render
from repro.experiments.parallel import _run_cell
from repro.experiments.scales import _SCALES
from repro.experiments.specs import RenderSpec, SweepSpec
from repro.faults.policy import quarantine_backoff
from repro.faults.pool import SupervisedPool, Tenant
from repro.faults.supervise import default_start_method
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
            return self.sweep_spec().to_params()
        if self.kind in ("figure", "table", "ablation"):
            params = RenderSpec.from_params(self.params, self.kind).to_params()
            artifact(self.kind, params["id"])  # ValueError on an unknown id
            return params
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
        if self.kind == "run" and (len(spec.protocols)
                                   * len(spec.seed_list()) != 1):
            raise ValueError(f"a 'run' job is a single cell; this spec has "
                             f"{len(spec.protocols)} protocol(s) x "
                             f"{len(spec.seed_list())} seed(s) — submit it "
                             f"as kind 'sweep'")
        return spec

    def fingerprint(self) -> str:
        """Stable workload identity: keys the managed checkpoint, so a
        resubmitted spec resumes where its predecessor stopped.

        ``faults`` is excluded: injection is an execution circumstance,
        so a faulted job and its clean twin share one checkpoint — and
        the quarantine ledger sees a crash-looping spec as one spec
        however its faults vary."""
        params = self.normalized()
        params.pop("faults", None)
        blob = json.dumps({"kind": "sweep" if self.kind == "run" else self.kind,
                           "params": params}, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


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
    """Bounded job queue + executor threads over one shared worker pool."""

    def __init__(self, checkpoint_dir: str = ".repro-service",
                 executors: int = 1, queue_size: int = 16,
                 job_ttl: Optional[float] = None,
                 job_timeout: Optional[float] = None,
                 watchdog_interval: float = 0.25,
                 quarantine_after: int = 3,
                 quarantine_base: float = 30.0):
        for name, secs in (("job_ttl", job_ttl),
                           ("job_timeout", job_timeout)):
            if secs is not None and not secs > 0:
                raise ValueError(f"{name} must be positive seconds, "
                                 f"got {secs!r}")
        self.checkpoint_dir = checkpoint_dir
        self.artifact_dir = os.path.join(checkpoint_dir, "artifacts")
        os.makedirs(self.artifact_dir, exist_ok=True)
        #: Evict terminal jobs (and their event buffers + CSV artifacts,
        #: never their checkpoints) this many seconds after they finish
        #: (swept every ``watchdog_interval`` seconds).
        self.job_ttl = job_ttl
        #: Fail a running job — and kill its busy pool workers — after
        #: this long without a finished cell.
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
        #: Pool workers, and jobs running at once.
        self.executors = max(1, executors)
        #: Most jobs in state ``queued`` at once; ``submit`` counts them,
        #: so a job cancelled while queued frees its slot at once.
        self.queue_size = max(1, queue_size)
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue()
        self._lock = threading.RLock()
        #: Signalled on every job event append / state change.
        self.condition = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._next_id = 1
        self._stopping = False
        #: Job still on its thread -> its tenant (what a stop stops) and
        #: monotonic time of its last progress (what the watchdog reads).
        self._running: Dict[Job, Tuple[Tenant, float]] = {}
        # Forked before this manager starts its first thread.
        self._pool = SupervisedPool(
            multiprocessing.get_context(default_start_method()),
            self.executors, _run_cell)
        self._pool.start()
        self._threads = []
        for i in range(self.executors):
            self._threads.append(threading.Thread(
                target=self._worker, daemon=True, name=f"repro-job-executor-{i}"))
            self._threads[-1].start()
        if job_ttl is not None or job_timeout is not None:
            threading.Thread(target=self._housekeep, daemon=True,
                             name="repro-job-housekeeper",
                             args=(max(0.05, watchdog_interval),)).start()

    # ------------------------------------------------------------------
    # public API (called from HTTP threads)
    # ------------------------------------------------------------------
    def submit(self, kind: str, params: Dict[str, object]
               ) -> Tuple[Job, bool]:
        """Validate, register and enqueue a job.

        Returns ``(job, created)``.  A spec identical to one already
        queued or running is *coalesced* onto the existing job
        (``created=False``) — two clients asking for the same grid share
        one execution and both watch the same stream.  So is a spec
        identical to a retained ``done`` job, unless either carries
        ``faults``: results are pure functions of the spec, so the
        finished job *is* the answer, while a faulted submission asks
        for the run itself.  Raises ``ValueError`` for an invalid spec
        and :class:`QueueFullError` when the bounded queue is at
        capacity.
        """
        spec = JobSpec(kind=kind, params=dict(params or {}))
        fingerprint = spec.fingerprint()  # validates; may raise ValueError
        with self._lock:
            if self._stopping:
                raise QueueFullError("manager is shutting down")
            self._check_quarantine(fingerprint)
            queued = 0
            for job_id in reversed(self._order):
                existing = self._jobs[job_id]
                if existing.fingerprint == fingerprint and (
                        existing.state in ("queued", "running")
                        or (existing.state == "done"
                            and not spec.params.get("faults")
                            and not existing.spec.params.get("faults"))):
                    return existing, False
                queued += existing.state == "queued"
            if queued >= self.queue_size:
                raise QueueFullError(f"submission queue is full "
                                     f"({self.queue_size} jobs)")
            job = Job(
                job_id=f"j{self._next_id:04d}",
                spec=spec,
                fingerprint=fingerprint,
                checkpoint=os.path.join(self.checkpoint_dir,
                                        f"job-{fingerprint}.jsonl"),
                csv_path=os.path.join(self.artifact_dir,
                                      f"j{self._next_id:04d}.csv"),
            )
            self._queue.put_nowait(job)
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

    def cancel(self, job: Job) -> Job:
        """Cancel ``job`` now: a queued one never starts, a running one
        loses its busy workers mid-cell (its checkpoint stays, so the
        spec resumes later); a finished or evicted one is left as is."""
        with self._lock:
            if job.state in ("queued", "running"):
                self._stop(job, "cancelled")
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
                for job in list(self._jobs.values()):
                    self.cancel(job)
        for _ in self._threads:
            self._queue.put_nowait(None)
        for thread in self._threads:
            thread.join(timeout=10.0)
        self._pool.close()

    # ------------------------------------------------------------------
    # executor side
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        """One executor thread: take a job, coordinate it, repeat."""
        while True:
            job = self._queue.get()
            if job is None:
                return
            tenant = Tenant(self._pool)
            with self._lock:
                # A cancelled predecessor of the same spec may still be
                # unwinding: its checkpoint is closed when it leaves.
                while any(other.checkpoint == job.checkpoint
                          for other in self._running):
                    self.condition.wait()
                if job.state != "queued":  # cancelled while queued
                    continue
                if self._stopping:
                    self._finish(job, "cancelled")
                    continue
                job.state = "running"
                job.started_at = time.time()
                self._running[job] = (tenant, time.monotonic())
                self._append_event(job, {"type": "state", "state": "running"})
            result = error = None
            try:
                result = _run_job(
                    job.spec.kind, job.spec.params, job.csv_path,
                    jobs=self.executors, pool=tenant,
                    progress=functools.partial(self._progress, job),
                    checkpoint=job.checkpoint, resume=True,
                    checkpoint_gc=True)
            except Exception:
                error = traceback.format_exc().strip().splitlines()[-1]
            with self._lock:
                del self._running[job]
                self.condition.notify_all()
                if job.state == "running":  # else stopped: already terminal
                    job.result, job.error = result, error
                    self._finish(job, "failed" if error else "done")

    def _progress(self, job: Job, event) -> None:
        """Fold one finished cell's ``ProgressEvent`` into ``job``."""
        frame = event.to_jsonable()
        with self._lock:
            if job.state != "running":  # stopped: its run is unwinding
                return
            self._running[job] = (self._running[job][0], time.monotonic())
            job.cells_done = frame["done"]
            job.cells_total = frame["total"]
            if frame["restored"]:
                job.cells_restored += 1
            else:
                job.cells_executed += 1
                job.events_per_sec = frame["events_per_sec"]
            for name, value in frame["wire"].items():
                job.wire[name] = job.wire.get(name, 0) + value
            self._append_event(job, {"type": "progress", **frame})

    # ------------------------------------------------------------------
    # supervision: watchdog, TTL eviction, spec quarantine
    # ------------------------------------------------------------------
    def _housekeep(self, interval: float) -> None:
        """Background tick: fail running jobs that finished no cell for
        ``job_timeout`` seconds, evict terminal ones past ``job_ttl``."""
        while True:
            time.sleep(interval)
            with self._lock:
                if self._stopping:
                    return
                now = time.monotonic()
                for job, (_tenant, progressed) in list(self._running.items()):
                    if (self.job_timeout is not None and job.state == "running"
                            and now - progressed > self.job_timeout):
                        self.watchdog_timeouts += 1
                        self._stop(job, "failed", f"watchdog: no progress "
                                                  f"for {self.job_timeout:g}s")
                if self.job_ttl is not None:
                    self._sweep_expired()

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
        backoff = quarantine_backoff(self.quarantine_base,
                                     failures - self.quarantine_after)
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
        self.condition.notify_all()

    def _stop(self, job: Job, state: str,
              error: Optional[str] = None) -> None:
        """End ``job`` as ``state``, then stop its cells (lock held)."""
        job.error = error
        self._finish(job, state)
        if job in self._running:
            self._running[job][0].stop()

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


def _run_job(kind: str, params: Dict[str, object], csv_path: str,
             **execution) -> Dict[str, object]:
    """One job, start to result JSON, writing its CSV artifact.
    ``execution`` is :func:`~repro.experiments.parallel.run_grid`'s
    how-to-run keywords (``pool``, ``progress``, ``checkpoint``, ...),
    which ``SweepSpec.run`` and ``render`` forward alike."""
    spec = JobSpec(kind, params)
    if kind in ("run", "sweep"):
        grid = spec.sweep_spec().run(**execution)
        write_grid_csv(csv_path, grid)
        return grid_result_jsonable(kind, grid)

    params = spec.normalized()
    scale = _SCALES[params["scale"]] if params["scale"] else None
    rendered = render(kind, params["id"], scale, **execution)
    write_result_csv(csv_path, rendered)
    return {
        "kind": kind,
        "id": params["id"],
        "scale": params["scale"],
        "render": rendered.render(),
        "headers": list(rendered.headers),
        "rows": [list(row) for row in rendered.rows],
    }


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
