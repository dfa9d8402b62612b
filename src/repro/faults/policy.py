"""Supervision policy: retry budgets, deadlines and back-offs.

:mod:`repro.faults.supervise` is the one *mechanism* — it waits on
child processes and says whether one spoke, died or fell silent.  This
module is the only place the *policy* lives: what the worker pool does
about it, and every back-off that is ever computed.

* :class:`SupervisionPolicy` — one run on the worker pool (a grid, or a
  service job): how many times a lost cell is retried, how the backoff
  grows, and (optionally) how long one attempt may run before its
  worker is presumed wedged and killed.
* :func:`quarantine_backoff` — how long the service refuses a
  crash-looping spec (``job_timeout`` and ``quarantine_after`` are
  ``JobManager`` parameters).
"""

from dataclasses import dataclass
from typing import Optional

__all__ = ["SupervisionPolicy", "quarantine_backoff"]


@dataclass(frozen=True)
class SupervisionPolicy:
    """Retry policy for grid cells lost to worker crashes or stalls."""

    #: Retries allowed per cell after its first failed attempt.  A cell
    #: is quarantined as a CellFailure after ``1 + cell_retries``
    #: attempts have died.
    cell_retries: int = 2
    #: First retry delay in seconds; doubles per subsequent attempt.
    backoff_base: float = 0.05
    #: Upper bound on any single backoff delay.
    backoff_cap: float = 2.0
    #: Optional per-attempt wall-clock budget.  A worker that holds a
    #: cell longer is killed and the cell retried (kind="timeout").
    cell_timeout: Optional[float] = None

    def violations(self) -> tuple:
        errors = []
        if self.cell_retries < 0:
            errors.append("cell_retries must be >= 0")
        if self.backoff_base < 0:
            errors.append("backoff_base must be >= 0")
        if self.backoff_cap < self.backoff_base:
            errors.append("backoff_cap must be >= backoff_base")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            errors.append("cell_timeout must be positive")
        return tuple(errors)

    def backoff(self, failed_attempts: int) -> float:
        """Delay before retrying after ``failed_attempts`` failures."""

        if failed_attempts <= 0:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * (2 ** (failed_attempts - 1)))


def quarantine_backoff(base: float, excess_failures: int) -> float:
    """Seconds the service refuses a crash-looping spec: ``base`` at the
    quarantine threshold, doubling with every failure past it."""

    return base * 2.0 ** excess_failures
