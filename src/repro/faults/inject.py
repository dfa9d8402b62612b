"""Worker-side fault application.

These run *inside* pool worker processes, at the exact injection
points the :class:`~repro.faults.plan.FaultPlan` names.  Crashes use
``os._exit`` — no atexit handlers, no multiprocessing cleanup — so the
parent sees exactly what a SIGKILL'd / OOM-killed worker looks like:
a dead process sentinel and an EOF on the pipe, with no farewell.
"""

import os

from repro.faults import clock

__all__ = ["CRASH_EXIT_CODE", "apply_cell_fault"]

#: Exit code used by injected pool-worker crashes (diagnosable in the
#: CellFailure message, distinct from real signals/exit codes).
CRASH_EXIT_CODE = 23


def apply_cell_fault(fault) -> None:
    """Apply a cell fault tuple produced by ``FaultPlan.cell_fault``."""

    if fault is None:
        return
    if fault[0] == "crash":
        os._exit(CRASH_EXIT_CODE)
    elif fault[0] == "stall":
        clock.sleep(fault[1])
