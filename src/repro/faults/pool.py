"""SupervisedPool: a crash-safe worker pool that concurrent runs share.

``multiprocessing.Pool`` silently loses a task whose worker dies.  This
pool asks the one :class:`~repro.faults.supervise.Supervisor` whether a
busy worker replied, died or overran its deadline, and the run's
:class:`~repro.faults.policy.SupervisionPolicy` sets the cost: a lost
cell is retried on a fresh worker with capped exponential backoff until
it is yielded as ``("failed", ...)`` for the caller to quarantine, while
an exception a task *raises* re-raises at once (a retry would fail
alike).  Workers run :func:`~repro.faults.supervise.task_worker`, one
task at a time, and outlive a run: spawned lazily up to the pool's size,
idle between runs until :meth:`SupervisedPool.close`.  Runs on several
threads claim idle workers under one lock and each waits only on its
own; :meth:`Tenant.stop` ends a run from any thread by killing its busy
workers, which the run replaces before raising :class:`RunStopped`.
``fault_for(key, attempt)`` names injected faults; only plan tuples
cross to the worker.
"""

import threading
from collections import deque
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.faults import clock
from repro.faults.policy import SupervisionPolicy
from repro.faults.supervise import Child, Supervisor, task_worker

__all__ = ["RunStopped", "SupervisedPool", "Tenant", "WorkerTaskError"]


class WorkerTaskError(RuntimeError):
    """A task raised inside its worker (carries the worker traceback)."""


class RunStopped(RuntimeError):
    """The run was stopped from another thread; its cells were dropped."""


class SupervisedPool:
    """Up to ``workers`` crash-supervised processes running ``runner``."""

    def __init__(self, ctx, workers: int, runner: Callable) -> None:
        self._size = max(1, workers)
        self._runner = runner
        self._supervisor = Supervisor(ctx, target=task_worker,
                                      name="repro-grid-worker")
        self._lock = threading.Lock()
        #: Notified when a worker turns idle or a run must end.
        self._returned = threading.Condition(self._lock)
        self._idle: List[Child] = []
        #: Busy worker -> the tenant whose run holds it.
        self._holder: Dict[Child, "Tenant"] = {}
        self._closed = False

    def start(self) -> None:
        """Spawn every worker now, not on first demand."""
        with self._lock:
            while len(self._idle) + len(self._holder) < self._size:
                self._idle.append(self._supervisor.spawn(self._runner))

    def close(self) -> None:
        """Kill and reap every worker; a run still going raises."""
        with self._lock:
            self._closed = True
            self._idle.clear()
            self._returned.notify_all()
            self._supervisor.close()

    def _claim(self, tenant: "Tenant") -> Optional[Child]:
        """An idle (or newly spawned) worker, now held by ``tenant``;
        None while every worker is busy."""
        with self._lock:
            self._check(tenant)
            if self._idle:
                worker = self._idle.pop()
            elif len(self._holder) < self._size:
                worker = self._supervisor.spawn(self._runner)
            else:
                return None
            self._holder[worker] = tenant
            return worker

    def _await(self, tenant: "Tenant", want_worker: bool,
               timeout: Optional[float]) -> None:
        """Sleep until a worker turns idle, ``tenant`` stops or
        ``timeout`` passes; not at all if one is free and wanted."""
        with self._lock:
            self._check(tenant)
            if not (want_worker
                    and (self._idle or len(self._holder) < self._size)):
                self._returned.wait(timeout)
                self._check(tenant)

    def _check(self, tenant: "Tenant") -> None:
        if tenant.stopped or self._closed:
            raise RunStopped("the run was stopped or its pool closed")

    def _release(self, worker: Child, tenant: "Tenant", fit: bool) -> None:
        """Idle ``worker`` again, or — unfit, or its run stopped (which
        may have signalled it) — kill, reap and replace it."""
        with self._lock:
            del self._holder[worker]
            if not fit or tenant.stopped:
                self._supervisor.discard(worker, kill=True)
                if self._closed:
                    return
                worker = self._supervisor.spawn(self._runner)
            self._idle.append(worker)
            self._returned.notify_all()


class Tenant:
    """One client's share of a pool, which it runs tasks through;
    :meth:`stop` ends its runs (even one not yet started), no other's."""

    __slots__ = ("pool", "stopped")

    def __init__(self, pool: SupervisedPool) -> None:
        self.pool = pool
        self.stopped = False

    def stop(self) -> None:
        """Kill this tenant's busy workers (signal only, so safe from
        any thread); its runs replace them and raise."""
        pool = self.pool
        with pool._lock:
            self.stopped = True
            for worker, holder in pool._holder.items():
                if holder is self:
                    pool._supervisor.kill(worker)
            pool._returned.notify_all()

    def run(self, tasks: Iterable[Tuple[int, object]],
            policy: Optional[SupervisionPolicy] = None,
            fault_for: Optional[Callable] = None) -> Iterator[tuple]:
        """Yield one outcome per ``(key, payload)`` task, in completion
        order: ``("ok", key, result)``, ``("retry", key)`` (an attempt
        died; the cell is queued again) or ``("failed", key, kind,
        attempts, message)``.  ``fault_for(key, attempt)`` names the
        fault to inject; it runs here, on the coordinator."""
        pool, policy = self.pool, policy or SupervisionPolicy()
        queue = deque(tasks)
        outstanding = len(queue)
        deferred: List[Tuple[float, int, object]] = []  # (ready_at, key, payload)
        attempts: Dict[int, int] = {}
        busy: Dict[Child, Tuple[int, object]] = {}  # worker -> (key, payload)
        try:
            while outstanding:
                now = clock.monotonic()
                queue.extend((key, payload) for ready_at, key, payload
                             in deferred if ready_at <= now)
                deferred = [entry for entry in deferred if entry[0] > now]
                until_retry = (max(0.0, min(e[0] for e in deferred) - now)
                               if deferred else None)
                while queue:
                    worker = pool._claim(self)
                    if worker is None:
                        break
                    key, payload = queue.popleft()
                    fault = (fault_for(key, attempts.get(key, 0))
                             if fault_for else None)
                    try:
                        worker.conn.send((payload, fault))
                    except (OSError, ValueError):
                        # Died while idle: replace it, requeue the task.
                        pool._release(worker, self, fit=False)
                        queue.appendleft((key, payload))
                        continue
                    busy[worker] = (key, payload)
                    worker.arm(policy.cell_timeout)
                if not busy:
                    # Nothing of ours runs: wait for a worker another run
                    # returns, or for the next retry.
                    pool._await(self, bool(queue), until_retry)
                    continue
                events = pool._supervisor.wait(list(busy), until_retry)
                if self.stopped:
                    raise RunStopped("the run was stopped")
                for worker, event, value in events:
                    key, payload = busy.pop(worker)
                    pool._release(worker, self, fit=event == "message")
                    if event == "message" and value[0] == "ok":
                        outstanding -= 1
                        yield ("ok", key, value[1])
                        continue
                    if event == "message":
                        raise WorkerTaskError(f"grid cell {key} raised in "
                                              f"its worker:\n{value[1]}")
                    failed = attempts[key] = attempts.get(key, 0) + 1
                    kind, message = (
                        ("crash", f"worker exited with code {value}")
                        if event == "exited" else
                        ("timeout", f"no result within {policy.cell_timeout:g}s"))
                    if failed > policy.cell_retries:
                        outstanding -= 1
                        yield ("failed", key, kind, failed, message)
                    else:
                        yield ("retry", key)
                        deferred.append((clock.monotonic()
                                         + policy.backoff(failed), key, payload))
        finally:
            # A cell raised, the run was stopped or its consumer left: no
            # worker stays busy with a cell nobody will read.
            for worker in busy:
                pool._release(worker, self, fit=False)
