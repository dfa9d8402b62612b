"""Weighted attack mixes: the adversary half of a scenario's identity.

An :class:`AttackMix` says *what fraction of the receivers misbehave,
how, with which parameters, and where they sit* — one frozen value that
rides :class:`~repro.workloads.scenario.ScenarioConfig` as its
``adversary`` field and therefore flows through the grid engine,
checkpoints and caches like any other scenario parameter.

Sampling follows the fuzzer-loop idiom: the mix's fractions are
*weights*.  The total attacked fraction is their sum; the concrete
attacker set is drawn by the placement policy, and when the mix names
several attacks each attacker's behaviour is a per-seed weighted draw —
so a sweep over seeds explores different realizations of the same mix,
exactly like a fuzzer re-rolling its attack schedule per iteration.

Everything here is a pure function of ``(mix, seed, population,
capability topology)``: :func:`place_attackers` derives its own RNGs
from the scenario seed (the ``"freeriders"`` stream name keeps the
single-attack ``random``-policy case bit-identical to the legacy
``freerider_*`` selection), consumes them in a fixed order and touches
no global state.  Every shard of a sharded run recomputes the identical
placement; the hypothesis suite pins the purity directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.adversary.placement import PLACEMENT_POLICIES, place_ids
from repro.adversary.registry import get_attack, is_registered
from repro.sim.rng import derive_seed

#: node_id -> (attack name, attack parameter): one scenario's placement.
Placement = Dict[int, Tuple[str, float]]


@dataclass(frozen=True, slots=True)
class AttackMix:
    """A weighted set of attacks plus their placement policy.

    ``attacks`` holds ``(name, fraction)`` pairs; each fraction is the
    expected share of receivers running that attack, and their sum is
    the total attacked fraction.  ``params`` optionally overrides an
    attack's parameter (see the catalog's ``param_doc``); unnamed
    attacks use their registered default.  ``victim_policy`` picks where
    the attackers sit (see :mod:`repro.adversary.placement`).
    """

    attacks: Tuple[Tuple[str, float], ...]
    params: Tuple[Tuple[str, float], ...] = ()
    victim_policy: str = "random"
    #: Extra label mixed into the placement/assignment seeds.  Lets two
    #: otherwise-identical mixes decorrelate their draws; the default
    #: keeps the legacy freerider selection bit-compatible.
    salt: str = field(default="", compare=True)

    def __post_init__(self) -> None:
        """Refuse a bad mix, every problem in one :class:`ValueError`.

        Importing the in-tree attacks here (not at module import) keeps
        the mix type usable by ``ScenarioConfig`` without dragging the
        protocol stack in, while still validating names against the full
        catalog.
        """
        import repro.adversary.attacks  # noqa: F401  (registers the catalog)

        errors = []
        if not self.attacks:
            errors.append("attack mix names no attacks")
        seen = set()
        for name, fraction in self.attacks:
            if name in seen:
                errors.append(f"attack {name!r} listed twice in the mix")
            seen.add(name)
            if not is_registered(name):
                from repro.adversary.registry import attack_names
                errors.append(f"unknown attack {name!r}; known: "
                              f"{', '.join(attack_names())}")
            if not 0.0 < fraction < 1.0:
                errors.append(f"attack fraction for {name!r} must be in "
                              f"(0, 1), got {fraction!r}")
        if not 0.0 < self.total_fraction < 1.0:
            errors.append(f"total attacked fraction must be in (0, 1), "
                          f"got {self.total_fraction!r}")
        for name, value in self.params:
            if name not in seen:
                errors.append(f"parameter override for {name!r}, which the "
                              f"mix does not include")
            if not 0.0 < value <= 1.0:
                errors.append(f"attack parameter for {name!r} must be in "
                              f"(0, 1], got {value!r}")
        if self.victim_policy not in PLACEMENT_POLICIES:
            errors.append(f"unknown victim policy {self.victim_policy!r}; "
                          f"known: {', '.join(PLACEMENT_POLICIES)}")
        if errors:
            raise ValueError("; ".join(errors))

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def single(cls, name: str, fraction: float,
               param: Optional[float] = None,
               victim_policy: str = "random") -> "AttackMix":
        """A one-attack mix (the §5 freerider study's shape)."""
        params = () if param is None else ((name, param),)
        return cls(attacks=((name, fraction),), params=params,
                   victim_policy=victim_policy)

    @classmethod
    def parse(cls, attacks_text: str, params_text: str = "",
              victim_policy: str = "random") -> "AttackMix":
        """Build a mix from CLI syntax: ``"spam=0.1,withhold=0.05"``.

        ``params_text`` uses the same ``name=value`` syntax for parameter
        overrides.  Raises :class:`ValueError` on malformed input, and
        the constructor raises one on every bad name or range at once.
        """
        return cls(attacks=_parse_pairs(attacks_text, "--attacks"),
                   params=_parse_pairs(params_text, "--attack-params"),
                   victim_policy=victim_policy)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def total_fraction(self) -> float:
        """The expected fraction of receivers attacked (sum of weights)."""
        return sum(fraction for _, fraction in self.attacks)

    def attack_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.attacks)

    def param_for(self, name: str) -> float:
        """The parameter ``name`` runs with: override or catalog default."""
        for param_name, value in self.params:
            if param_name == name:
                return value
        return get_attack(name).default_param

    def describe(self) -> str:
        parts = ", ".join(f"{name}={fraction:g}"
                          for name, fraction in self.attacks)
        return f"{parts} @ {self.victim_policy}"

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def key(self) -> tuple:
        """Stable value identity (feeds ``scenario_key``)."""
        return ("attack-mix", self.attacks, self.params, self.victim_policy,
                self.salt)

    def required_membership(self) -> Optional[str]:
        """The membership substrate the mix needs, if any attack does."""
        for name, _ in self.attacks:
            if is_registered(name):
                required = get_attack(name).requires_membership
                if required is not None:
                    return required
        return None


def _parse_pairs(text: str, flag: str) -> Tuple[Tuple[str, float], ...]:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, sep, value = chunk.partition("=")
        if not sep or not name.strip():
            raise ValueError(f"{flag}: expected name=value, got {chunk!r}")
        try:
            pairs.append((name.strip(), float(value)))
        except ValueError:
            raise ValueError(f"{flag}: {name.strip()!r} needs a numeric "
                             f"value, got {value!r}") from None
    return tuple(pairs)


# ----------------------------------------------------------------------
# sampling: (mix, seed, population, topology) -> placement
# ----------------------------------------------------------------------
def place_attackers(mix: AttackMix, *, seed: int, n_nodes: int,
                    capacities: Sequence[float]) -> Placement:
    """The attacker set and per-attacker behaviour for one scenario run.

    A pure function: all randomness comes from RNGs derived here from
    ``seed`` (placement draws from the ``"freeriders"``-named stream —
    the legacy stream name — so a single-attack ``random``-policy mix
    reproduces the historical freerider selection bit for bit; the
    per-attacker weighted assignment draws from its own
    ``"attack-mix"`` stream and is skipped entirely for single-attack
    mixes).  Sharded execution relies on this: every shard recomputes
    the identical placement instead of shipping it.
    """
    receivers = range(1, n_nodes)
    count = round(mix.total_fraction * len(receivers))
    if count <= 0:
        return {}
    rng = random.Random(derive_seed(seed, "freeriders" + mix.salt))
    ids = place_ids(mix.victim_policy, rng, receivers, capacities, count)
    if len(mix.attacks) == 1:
        name = mix.attacks[0][0]
        param = mix.param_for(name)
        return {node_id: (name, param) for node_id in ids}
    assign_rng = random.Random(derive_seed(seed, "attack-mix" + mix.salt))
    names = [name for name, _ in mix.attacks]
    weights = [fraction for _, fraction in mix.attacks]
    placement: Placement = {}
    for node_id in ids:  # sorted, so assignment order is deterministic
        name = assign_rng.choices(names, weights)[0]
        placement[node_id] = (name, mix.param_for(name))
    return placement
