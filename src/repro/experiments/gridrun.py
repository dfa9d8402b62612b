"""Plan, then run: the one driver behind figures, tables, ablations and
extensions.

**The plan/render contract.**  Every artifact entry point is a *plan*:
a generator function ``fn(scale, ...)`` whose generator yields its
cells exactly once and returns its result from the summaries it is sent
back::

    def fig5(scale=None, lag=10.0):
        cells, spec = ...            # what to run, and how to reduce it
        summaries = yield cells      # one name->value dict per cell
        return FigureResult(...)     # a pure function of the summaries

A plan never runs anything and takes no execution keyword.
:func:`run_plans` runs any number of plans as **one** grid call, whose
keywords (:func:`grid_summaries`': workers, checkpoint, progress) are
the one declaration of *how* artifacts run.  Plans handed over together
share their scenarios, since cells naming the same scenario run once
and compute the union of their specs.  Nothing is shared between
separate calls, and a cell computes only the specs some plan asked for.

Determinism contract: summaries are pure functions of their run, runs
are pure functions of their config, and assembly happens in cell order,
so the output is byte-identical for any ``jobs`` value, with or without
an intervening kill/resume from the call's checkpoint.
"""

from __future__ import annotations

import os
from typing import Dict, Generator, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.parallel import ProgressCallback, run_grid
from repro.metrics.summary import MetricSpec
from repro.workloads.scenario import ScenarioConfig, scenario_key

#: One unit of figure work: a scenario and the reductions it needs.
Cell = Tuple[ScenarioConfig, Sequence[MetricSpec]]

#: An artifact's generator: yields its cells, is sent their summaries,
#: returns its result.
Plan = Generator[List[Cell], List[Dict[str, object]], object]


def default_jobs() -> int:
    """Worker-process count from the environment (``REPRO_JOBS=N``, 1 if
    unset); any value but a positive integer raises :class:`ValueError`."""
    value = os.environ.get("REPRO_JOBS")
    if value is None:
        return 1
    try:
        jobs = int(value)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ValueError(f"invalid REPRO_JOBS {value!r}; expected a "
                         f"positive integer")
    return jobs


def grid_summaries(cells: Sequence[Cell], *,
                   jobs: Optional[int] = None,
                   start_method: Optional[str] = None,
                   checkpoint: Optional[str] = None,
                   resume: bool = False,
                   checkpoint_gc: bool = False,
                   progress: Optional[ProgressCallback] = None,
                   ) -> List[Dict[str, object]]:
    """Compute every cell's summaries; one name->value dict per cell,
    in cell order.

    Distinct cells naming the same scenario are deduplicated into one
    run that computes the union of their specs.

    The keywords say how to run, never what: ``jobs`` (None resolves
    ``REPRO_JOBS``), ``start_method``, ``checkpoint``, ``resume``,
    ``checkpoint_gc`` and ``progress`` are :func:`run_grid`'s.  A cell
    that fault supervision quarantined raises :class:`ValueError`.
    """
    unique: Dict[str, Tuple[ScenarioConfig, Dict[str, MetricSpec]]] = {}
    keys: List[str] = []
    for config, specs in cells:
        key = scenario_key(config)
        keys.append(key)
        merged = unique.setdefault(key, (config, {}))[1]
        for spec in specs:
            merged.setdefault(spec.name, spec)
    if not unique:
        return []
    if jobs is None:
        jobs = default_jobs()
    runs = list(unique.values())
    grid = run_grid([config for config, _ in runs],
                    seeds=None, metrics={}, jobs=jobs,
                    progress=progress, start_method=start_method,
                    summaries=[tuple(wanted.values()) for _, wanted in runs],
                    checkpoint=checkpoint, resume=resume,
                    checkpoint_gc=checkpoint_gc)
    if grid.failures:
        failure = grid.failures[0]
        config = runs[failure.scenario_index][0]
        raise ValueError(
            f"scenario {config.protocol} on {config.distribution.name} "
            f"(seed {config.seed}) was quarantined: {failure.kind} after "
            f"{failure.attempts} attempt(s) — {failure.message}")
    by_key = {key: record.summaries
              for key, record in zip(unique, grid.records)}
    return [{spec.name: by_key[key][spec.name] for spec in specs}
            for key, (_, specs) in zip(keys, cells)]


def run_plans(plans: Iterable[Plan], **grid) -> List[object]:
    """Run ``plans`` as one deduplicated :func:`grid_summaries` call
    (``grid`` is its keywords); returns each plan's result, in order."""
    plans = list(plans)
    wanted = [list(next(plan)) for plan in plans]
    summaries = grid_summaries([cell for cells in wanted for cell in cells],
                               **grid)
    results = []
    start = 0
    for plan, cells in zip(plans, wanted):
        try:
            plan.send(summaries[start:start + len(cells)])
        except StopIteration as done:
            results.append(done.value)
        else:
            raise RuntimeError("a plan yields its cells exactly once")
        start += len(cells)
    return results
