"""Deterministic fault-injection plane and the supervision primitive.

This package is the chaos-engineering seam for the reproduction: a
:class:`~repro.faults.plan.FaultPlan` describes *which* failures to
inject (worker crashes at a grid cell, shard-worker exits at a window
barrier, slow-worker stalls, torn checkpoint writes, corrupted shard
wire buffers), and supervision turns every one of those failures into
a bounded, observable, retried-or-degraded outcome.

Supervision is one mechanism with two clients.  The mechanism is
:class:`~repro.faults.supervise.Supervisor`, the only code that touches
a process sentinel: its one ``wait`` says whether a child sent a frame,
exited (with its exit code) or overran its deadline.  The clients are
the worker pool (:mod:`repro.faults.pool`: a lost cell costs a retry; a
stopped run, such as a cancelled service job, costs its busy workers)
and the shard coordinator (``repro.net.shard``: a lost shard costs a
scenario restart); their budgets live in :mod:`repro.faults.policy`.

Two invariants anchor the design:

* **Faults are deterministic.** A plan names exact injection points
  (cell index, shard@window); there is no probabilistic coin-flip, so
  a faulted run is exactly reproducible.
* **Recovered runs are byte-identical to clean runs.** Scenarios are
  pure functions of (config, seed), so a supervised retry of a crashed
  worker or a restarted sharded scenario must produce renders and CSVs
  byte-for-byte equal to an unfaulted run.  The chaos parity suite in
  ``tests/test_faults.py`` pins this.

Unlike ``repro.sim``/``repro.net``, this package legitimately deals in
wall-clock time (backoff, barrier and watchdog deadlines).  All of it
flows through :mod:`repro.faults.clock` so deterministic packages can
import the seam without tripping the D101 lint rule.
"""

from repro.faults.failures import CellFailure, ShardFailure, TornCheckpointInjected
from repro.faults.plan import FaultPlan
from repro.faults.policy import ShardSupervision, SupervisionPolicy
from repro.faults.pool import SupervisedPool, WorkerTaskError
from repro.faults.supervise import Supervisor

__all__ = [
    "CellFailure",
    "FaultPlan",
    "ShardFailure",
    "ShardSupervision",
    "SupervisedPool",
    "SupervisionPolicy",
    "Supervisor",
    "TornCheckpointInjected",
    "WorkerTaskError",
]
