"""Experiment scales.

The paper runs ~270 PlanetLab nodes for minutes; pure-Python simulation
of that takes minutes of wall clock per run, so the benches default to a
reduced scale that preserves every qualitative behaviour (the CSR, class
fractions, fanout and timing parameters are unchanged — only population
and stream length shrink).  Set ``REPRO_SCALE=full`` (or ``REPRO_FULL=1``)
to reproduce at paper scale, or ``REPRO_SCALE=quick`` for smoke runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.workloads.scenario import ScenarioConfig


@dataclass(frozen=True)
class Scale:
    """Population and stream length for one experiment tier."""

    name: str
    n_nodes: int
    duration: float
    drain: float


#: Smoke scale: tiny population, everything delivers — tests use this to
#: exercise the harness, not to reproduce numbers.
QUICK = Scale("quick", 50, 10.0, 20.0)
#: Default bench scale: the paper's full population (the congestion
#: behaviour is population-driven) over a shortened stream — 45 s is the
#: shortest stream at which standard gossip's congestion collapse on
#: ms-691 (Table 3's 0% row) fully develops.
DEFAULT = Scale("default", 270, 45.0, 60.0)
#: Paper scale: 270 nodes, 3 minutes of stream.
FULL = Scale("full", 270, 180.0, 90.0)
#: Reduced population for wide parameter sweeps (Figure 2's 8 runs).
SWEEP = Scale("sweep", 150, 25.0, 50.0)

_SCALES = {s.name: s for s in (QUICK, DEFAULT, FULL, SWEEP)}


def current_scale() -> Scale:
    """The scale selected through the environment (default: ``default``)."""
    if os.environ.get("REPRO_FULL") == "1":
        return FULL
    name = os.environ.get("REPRO_SCALE", "default").lower()
    try:
        return _SCALES[name]
    except KeyError:
        known = ", ".join(sorted(_SCALES))
        raise ValueError(f"unknown REPRO_SCALE {name!r}; known: {known}") from None


def scenario_at(scale: Scale, **overrides) -> ScenarioConfig:
    """A ScenarioConfig at the given scale, with overrides applied; named
    ``"<protocol> <distribution>"`` (both in its key) unless overridden."""
    base = dict(n_nodes=scale.n_nodes, duration=scale.duration,
                drain=scale.drain, seed=42)
    base.update(overrides)
    config = ScenarioConfig(**base)
    return config if "name" in overrides else config.with_(
        name=f"{config.protocol} {config.distribution.name}")
