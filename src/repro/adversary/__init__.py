"""Adversarial scenario engine: who misbehaves, how, and at what cost.

The package splits the adversary into orthogonal pieces:

* :mod:`~repro.adversary.registry` — the pluggable attack catalog
  (``@attack`` registration at import time, K301-style);
* :mod:`~repro.adversary.attacks` — the in-tree implementations
  (``underclaim``, ``nonserve``, ``spam``, ``withhold``,
  ``poisoned-view``);
* :mod:`~repro.adversary.placement` — topology-aware victim selection
  (``random``, ``high-degree``, ``edge``, ``clustered``);
* :mod:`~repro.adversary.mix` — :class:`AttackMix`, the frozen value a
  :class:`~repro.workloads.scenario.ScenarioConfig` carries, plus the
  pure ``(mix, seed, population, topology) -> placement`` sampler;
* :mod:`~repro.adversary.metrics` — per-victim impact reductions for
  the grid engine.

Importing the package imports :mod:`~repro.adversary.attacks`, so the
catalog is fully populated in every process that can build a scenario —
including fork/spawn shard workers.
"""

from repro.adversary import attacks as _attacks  # noqa: F401  (registers catalog)
from repro.adversary.metrics import ATTACK_GRID_METRICS, attack_impact
from repro.adversary.mix import AttackMix, Placement, place_attackers
from repro.adversary.placement import PLACEMENT_POLICIES, place_ids
from repro.adversary.registry import (ROLES, Attack, attack, attack_catalog,
                                      attack_names, get_attack, is_registered)


def catalog_jsonable() -> dict:
    """The attack catalog as one JSON-able payload.

    ``repro attacks --list --format json`` and the service control
    plane's ``GET /v1/catalog/attacks`` both serve exactly this value,
    so scripted clients see one schema regardless of transport.
    """
    return {
        "attacks": [entry.jsonable() for entry in attack_catalog()],
        "victim_policies": list(PLACEMENT_POLICIES),
        "roles": list(ROLES),
        "usage": ("sweep --attacks name=frac,... "
                  "[--attack-params name=value,...] "
                  "[--victim-policy POLICY]"),
    }


__all__ = [
    "catalog_jsonable",
    "ATTACK_GRID_METRICS",
    "Attack",
    "AttackMix",
    "PLACEMENT_POLICIES",
    "Placement",
    "attack",
    "attack_catalog",
    "attack_impact",
    "attack_names",
    "get_attack",
    "is_registered",
    "place_attackers",
    "place_ids",
]
