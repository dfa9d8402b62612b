"""Experiment service control plane.

A long-running, stdlib-only broker around the experiment engine, in the
grid-middleware mold: clients *submit* jobs over HTTP/JSON, a resident
:class:`JobManager` schedules them onto executor slots — each a
persistent supervised child process driving the same ``run_grid``
pipeline the CLI uses — and results/artifacts are served back, with
live progress streamed as Server-Sent Events.  The point of residency
is that jobs share one managed checkpoint directory and the retained
jobs: a spec identical to a queued, running or finished job is answered
by that job, and a cancelled or crashed job resubmitted with the same
spec resumes from its checkpoint instead of starting over.

Layering (engine and serving kept separate, FReD-style):

* :mod:`~repro.service.jobs` — job specs, states and the executor
  slots (no HTTP anywhere);
* :mod:`~repro.service.api` — pure request -> response dispatch (no
  sockets, unit-testable);
* :mod:`~repro.service.http` — the ``ThreadingHTTPServer`` shell and
  the SSE stream writer;
* :mod:`~repro.service.client` — a thin ``urllib`` client, used by the
  ``repro submit/status/watch`` verbs and the tests.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.http import ExperimentService
from repro.service.jobs import (Job, JobManager, JobSpec, QueueFullError,
                                SpecQuarantined, JOB_KINDS, JOB_STATES)

__all__ = [
    "ExperimentService",
    "Job",
    "JobManager",
    "JobSpec",
    "JOB_KINDS",
    "JOB_STATES",
    "QueueFullError",
    "ServiceClient",
    "ServiceError",
    "SpecQuarantined",
]
