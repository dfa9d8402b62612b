"""Experiment harness: scenario execution and per-figure/table definitions.

:mod:`repro.experiments.runner` turns a
:class:`~repro.workloads.scenario.ScenarioConfig` into an
:class:`~repro.experiments.runner.ExperimentResult`;
:mod:`repro.experiments.figures` and :mod:`repro.experiments.tables`
compute, for each figure and table of the paper's evaluation, the same
rows/series the paper plots — submitting their scenario grids through
:mod:`repro.experiments.parallel` (worker pools, in-worker summaries,
resumable JSONL checkpoints) via :mod:`repro.experiments.gridrun`.
:mod:`repro.experiments.artifacts` is the registry that names them all.
"""

from repro.experiments.runner import ExperimentResult, run_scenario

__all__ = ["ExperimentResult", "run_scenario"]
