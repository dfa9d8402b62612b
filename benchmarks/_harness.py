"""Shared plumbing for the benchmark suite.

Every bench renders the same rows/series as the corresponding figure or
table of the paper; ``emit`` prints the rendering (visible with ``-s``)
and archives it under ``benchmarks/results/`` so a full bench run leaves
a reviewable record.  Simulation runs are heavyweight, so benches use
``benchmark.pedantic(..., rounds=1, iterations=1)`` through ``measure``.
"""

from __future__ import annotations

import os
import re

from repro.experiments.gridrun import run_plans

RESULTS_DIR = os.environ.get(
    "REPRO_RESULTS_DIR",
    os.path.join(os.path.dirname(__file__), "results"))


def emit(result) -> None:
    """Print and archive a FigureResult/TableResult rendering."""
    text = result.render()
    print("\n" + text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    slug = re.sub(r"[^a-z0-9]+", "-",
                  getattr(result, "figure", getattr(result, "table", "out")).lower())
    path = os.path.join(RESULTS_DIR, f"{slug.strip('-')}.txt")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(text + "\n\n")


def measure(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


def measure_plan(benchmark, plan, *args, **kwargs):
    """Run the artifact plan ``plan(*args, **kwargs)`` (see
    :mod:`repro.experiments.gridrun`) exactly once under timing."""
    return measure(benchmark, lambda: run_plans([plan(*args, **kwargs)])[0])


# No grid configuration needed here: the artifact plans and the
# multi-seed bench take their worker count from REPRO_JOBS
# (repro.experiments.gridrun.default_jobs), so ``REPRO_JOBS=8 pytest
# benchmarks/`` parallelizes every figure/table bench as-is.
