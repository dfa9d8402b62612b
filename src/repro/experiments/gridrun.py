"""Cached, checkpointable grid execution for figures, tables and ablations.

This is the layer every figure/table/ablation entry point submits its
scenario cells through.  It adds three things on top of
:func:`repro.experiments.parallel.run_grid`:

* **a coherent summary cache** — each (scenario, summary-spec) pair is
  computed at most once per process, whether a worker process or the
  serial path produced it; no full ``ExperimentResult`` outlives its
  cell.  A figure that re-requests a cell another figure already paid
  for reuses the summary instead of re-running the scenario;
* **the figure layer's execution keywords** — :func:`grid_summaries`'
  keyword list is the one declaration of *how* a figure grid runs
  (workers, checkpointing, progress).  Every entry
  point is ``fn(scale, **grid)`` and forwards ``grid`` here untouched,
  so a caller's ``fig5(scale, jobs=4, checkpoint=path)`` reaches the
  engine as an argument, never as ambient state;
* **resumable execution** — given ``checkpoint=``, the grid's records
  append to JSONL as they land and a killed run resumes from the
  finished cells (each entry point makes exactly one grid call, so one
  artifact maps to one checkpoint file).

Determinism contract: summaries are pure functions of their run, runs
are pure functions of their config, and assembly happens in cell order —
so the output is byte-identical for any ``jobs`` value, with or without
an intervening kill/resume.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.parallel import ProgressCallback, run_grid
from repro.metrics.jitter import spec_mean_jittered_delivery_by_class
from repro.metrics.lag import TABLE_LAGS, spec_jitter_free_pct_by_class
from repro.metrics.summary import MetricSpec, standard_bundle
from repro.workloads.scenario import ScenarioConfig, scenario_key

#: One unit of figure work: a scenario and the reductions it needs.
Cell = Tuple[ScenarioConfig, Sequence[MetricSpec]]


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


#: (scenario key, spec name) -> computed summary value.
_SUMMARY_CACHE: Dict[Tuple[str, str], object] = {}


def clear_summary_cache() -> None:
    _SUMMARY_CACHE.clear()


def table_specs(config: ScenarioConfig) -> Tuple[MetricSpec, ...]:
    """Tables 2 and 3's reductions of ``config``'s run, at the table lag
    of its distribution (none for a distribution the tables omit)."""
    lag = TABLE_LAGS.get(config.distribution.name)
    if lag is None:
        return ()
    return (spec_mean_jittered_delivery_by_class(lag),
            spec_jitter_free_pct_by_class(lag))


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
    run that computes the union of their specs.  The per-process summary
    cache is consulted first: a summary computed earlier (even by a
    different figure) is reused.

    The keywords say how to run, never what: ``jobs`` (None resolves
    ``REPRO_JOBS``), ``start_method``, ``checkpoint``, ``resume``,
    ``checkpoint_gc`` and ``progress`` are :func:`run_grid`'s.

    Any cell that actually *runs* additionally computes the predeclared
    standard spec bundle — the full summary set of the
    protocol×distribution figure matrix — and :func:`table_specs`, the
    Table 2 and 3 reductions.  A result never outlives its cell, so
    without this a later figure or table would re-run every shared
    scenario just to reduce it differently; with it, it is a pure cache
    hit.

    With a checkpoint, cache-based skipping is disabled for the *grid
    membership* (every unique scenario is part of the checkpointed grid,
    so the file's fingerprint never depends on what some earlier process
    happened to have cached): every unique scenario runs, or restores
    from the checkpoint itself.
    """
    if jobs is None:
        jobs = default_jobs()
    bundle_specs = standard_bundle()

    # Deduplicate cells into one (config, union-of-specs) per scenario.
    unique: Dict[str, Tuple[ScenarioConfig, Dict[str, MetricSpec]]] = {}
    keys: List[str] = []
    for config, specs in cells:
        key = scenario_key(config)
        keys.append(key)
        if key not in unique:
            unique[key] = (config, {})
        merged = unique[key][1]
        for spec in specs:
            merged.setdefault(spec.name, spec)

    # Decide what actually has to run.
    to_run: List[Tuple[str, ScenarioConfig, Tuple[MetricSpec, ...]]] = []
    for key, (config, wanted) in unique.items():
        if checkpoint is None:
            wanted = {name: spec for name, spec in wanted.items()
                      if (key, name) not in _SUMMARY_CACHE}
            if not wanted:
                continue
        # A cell that runs also computes the standard bundle and the
        # table specs: only their uncached entries on the cache path,
        # all of them under a checkpoint — a checkpointed grid covers
        # every unique scenario in full, so its fingerprint is a pure
        # function of the cells.
        extra = [spec for spec in bundle_specs + table_specs(config)
                 if spec.name not in wanted
                 and (checkpoint is not None
                      or (key, spec.name) not in _SUMMARY_CACHE)]
        to_run.append((key, config, tuple(wanted.values()) + tuple(extra)))

    if to_run:
        grid = run_grid([config for _, config, _ in to_run],
                        seeds=None, metrics={}, jobs=jobs,
                        progress=progress, start_method=start_method,
                        summaries=[specs for _, _, specs in to_run],
                        checkpoint=checkpoint, resume=resume,
                        checkpoint_gc=checkpoint_gc)
        for (key, _, _), record in zip(to_run, grid.records):
            if record is None:  # quarantined by fault supervision
                continue
            for name, value in record.summaries.items():
                _SUMMARY_CACHE[(key, name)] = value

    return [{spec.name: _SUMMARY_CACHE[(key, spec.name)] for spec in specs}
            for key, (_, specs) in zip(keys, cells)]
