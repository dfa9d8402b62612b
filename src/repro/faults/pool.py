"""SupervisedPool: a crash-safe worker pool for the grid engine.

``multiprocessing.Pool`` silently loses a task when its worker dies —
``imap_unordered`` just never yields the result, and the sweep hangs or
aborts.  This pool is a client of the one
:class:`~repro.faults.supervise.Supervisor`, which tells it whether a
busy worker replied, died or overran its deadline; what that *costs* is
decided here, from :class:`~repro.faults.policy.SupervisionPolicy`:

* each worker runs :func:`~repro.faults.supervise.task_worker` over its
  own duplex pipe — one task in flight per worker;
* a crashed/timed-out cell is retried on a fresh worker with capped
  exponential backoff, up to ``SupervisionPolicy.cell_retries``;
* a cell that keeps dying is yielded as a ``("failed", ...)`` outcome
  instead of aborting the run — the caller quarantines it;
* exceptions *raised* by the task (as opposed to the worker dying) are
  not retried: determinism means they would fail identically, so they
  re-raise with the worker traceback attached.

Fault injection hooks in via ``fault_for(key, attempt)``: the fault is
shipped to the worker and applied there (the coordinator never pickles
closures — only plan tuples).
"""

from collections import deque
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.faults import clock
from repro.faults.policy import SupervisionPolicy
from repro.faults.supervise import Child, Supervisor, task_worker

__all__ = ["SupervisedPool", "WorkerTaskError"]


class WorkerTaskError(RuntimeError):
    """A task raised inside its worker (carries the worker traceback)."""


class SupervisedPool:
    """Crash-supervised task fan-out over a fixed-size worker fleet."""

    def __init__(self, ctx, workers: int, runner: Callable, policy=None) -> None:
        self._size = max(1, workers)
        #: ``runner(payload, emit)`` — see ``task_worker``.
        self._runner = runner
        self.policy = policy if policy is not None else SupervisionPolicy()
        errors = self.policy.violations()
        if errors:
            raise ValueError("; ".join(errors))
        #: Retry attempts scheduled after crashes/timeouts (recovery
        #: evidence for parity tests and the CLI supervision summary).
        self.retries = 0
        self._supervisor = Supervisor(ctx, target=task_worker,
                                      name="repro-grid-worker")

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *_exc) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """Kill and reap every worker, idle or busy."""

        self._supervisor.close()

    def run(
        self,
        tasks: Iterable[Tuple[int, object]],
        fault_for: Optional[Callable] = None,
    ) -> Iterator[tuple]:
        """Yield one outcome per task, in completion order.

        ``tasks`` is an iterable of ``(key, payload)``.  Outcomes are
        ``("ok", key, result)`` or ``("failed", key, kind, attempts,
        message)``.  ``fault_for(key, attempt)`` (optional) names the
        injected fault for that attempt; it runs on the coordinator and
        only plan tuples cross to the worker.
        """

        queue = deque(tasks)
        outstanding = len(queue)
        deferred: List[Tuple[float, int, object]] = []  # (ready_at, key, payload)
        attempts: Dict[int, int] = {}
        busy: Dict[Child, Tuple[int, object]] = {}  # worker -> (key, payload)
        supervisor, policy = self._supervisor, self.policy
        idle = [supervisor.spawn(self._runner)
                for _ in range(min(self._size, outstanding))]

        while outstanding:
            now = clock.monotonic()
            queue.extend((key, payload) for ready_at, key, payload in deferred
                         if ready_at <= now)
            deferred = [entry for entry in deferred if entry[0] > now]

            while queue and idle:
                key, payload = queue.popleft()
                worker = idle.pop()
                fault = fault_for(key, attempts.get(key, 0)) if fault_for else None
                try:
                    worker.conn.send((payload, fault))
                except (OSError, ValueError):
                    # Died while idle: replace the slot, requeue the task.
                    supervisor.discard(worker, kill=True)
                    idle.append(supervisor.spawn(self._runner))
                    queue.appendleft((key, payload))
                    continue
                busy[worker] = (key, payload)
                worker.arm(policy.cell_timeout)

            # Wake for a busy worker's event, or (all the wait there is
            # when every live cell is backing off) the earliest retry.
            until_retry = (max(0.0, min(entry[0] for entry in deferred) - now)
                           if deferred else None)
            for worker, event, value in supervisor.wait(list(busy), until_retry):
                key, payload = busy.pop(worker)
                if event == "message":
                    idle.append(worker)
                    if value[0] == "ok":
                        outstanding -= 1
                        yield ("ok", key, value[1])
                        continue
                    raise WorkerTaskError(
                        f"grid cell {key} raised in its worker:\n{value[1]}"
                    )
                supervisor.discard(worker, kill=True)
                idle.append(supervisor.spawn(self._runner))
                failed = attempts.get(key, 0) + 1
                attempts[key] = failed
                if event == "exited":
                    kind, message = "crash", f"worker exited with code {value}"
                else:
                    kind = "timeout"
                    message = f"no result within {policy.cell_timeout:g}s"
                if failed > policy.cell_retries:
                    outstanding -= 1
                    yield ("failed", key, kind, failed, message)
                else:
                    self.retries += 1
                    deferred.append(
                        (clock.monotonic() + policy.backoff(failed), key, payload))
