"""Declarative experiment specs: one JSON-able value per workload.

:class:`SweepSpec` is the *only* declaration of an experiment parameter.
Each dataclass field carries its flag metadata (help text, metavar,
choices) and its annotated type is its coercion rule, so every surface
reads the same table:

* :func:`add_spec_arguments` turns the fields into argparse flags — with
  the field defaults for ``repro run``/``repro sweep``, with ``None``
  defaults for ``repro submit`` (whatever the user omits, the server
  fills in from this same table);
* :func:`spec_params` reads the parsed flags back into a params mapping;
* :meth:`SweepSpec.from_params` coerces that mapping — or an HTTP
  request body — through each field's declared type and raises a
  :class:`ValueError` naming the offending field.

The CLI and the service control plane (:mod:`repro.service`) therefore
build the *same* value and execute it through the same call —
:meth:`SweepSpec.run`, i.e. ``run_grid`` over ``spec.configs()`` /
``spec.seed_list()`` / ``spec.metrics()`` — so a
sweep submitted over HTTP is the same experiment, cell for cell and
metric for metric, as ``python -m repro sweep ...``: identical records,
identical aggregate render, identical CSV export (modulo the measured
``wall_time_s`` column, which is flagged as a measurement).  ``repro
run`` and the service's ``run`` kind are the one-cell case of the same
spec.  :class:`RenderSpec` is the same mechanism for the
figure/table/ablation parameters.

The normalized parameter mapping (:meth:`_ParamSpec.to_params`) is also
the *identity* of the workload: the service hashes it, with the job
kind, in :meth:`repro.service.jobs.JobSpec.fingerprint` to key managed
checkpoints — resubmitting the same spec after a cancel or a crash
resumes the same checkpoint file.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from typing import (Dict, List, Mapping, Optional, Tuple, Union, get_args,
                    get_origin, get_type_hints)

from repro.experiments.scales import _SCALES
from repro.workloads import CatastrophicFailure, distribution_by_name
from repro.workloads.scenario import (PROTOCOLS, ScenarioConfig,
                                      nonfinite_fields)


def _option(default, help: str, **flag):
    """A spec field that is also a CLI flag and a request parameter;
    ``flag`` is its argparse ``metavar=`` / ``choices=``, if any."""
    return field(default=default, metadata={"help": help, **flag})


@functools.lru_cache(maxsize=None)
def _hints(spec) -> Dict[str, object]:
    """Field name -> resolved annotation of a spec class (resolving the
    string annotations is ~0.2 ms, and every service request asks)."""
    return get_type_hints(spec)


class _ParamSpec:
    """What the spec dataclasses share: the JSON mapping in and out."""

    @classmethod
    def from_params(cls, params: Mapping, what: str = "sweep"):
        """Build and sanity-check a spec from a JSON-ish mapping.

        Unknown keys raise — a typoed parameter must not silently run
        the default experiment — and every value is coerced through its
        field's declared type (list-valued fields accept JSON lists or
        the CLI's comma-separated strings), so a malformed value is a
        :class:`ValueError` naming the field, never a stray
        ``TypeError`` from deep inside the run.  NaN and infinities are
        refused the same way, for every float field at once.
        """
        hints = _hints(cls)
        unknown = sorted(set(params) - set(hints))
        if unknown:
            raise ValueError(f"unknown {what} parameter(s): "
                             f"{', '.join(unknown)}; known: "
                             f"{', '.join(sorted(hints))}")
        spec = cls(**{name: _coerce(name, hints[name], value)
                      for name, value in params.items()})
        nonfinite = nonfinite_fields(spec)
        if nonfinite:
            raise ValueError(f"{what} parameter(s) must be finite: "
                             f"{', '.join(nonfinite)}")
        spec.check()
        return spec

    def to_params(self) -> Dict[str, object]:
        """The normalized JSON mapping (tuples as lists), suitable for a
        request body and stable under a round trip through
        :meth:`from_params`."""
        out: Dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


@dataclass(frozen=True)
class SweepSpec(_ParamSpec):
    """A protocol × seed grid, as the ``sweep`` CLI defines it.

    Field defaults *are* the CLI flag defaults; anything that changes a
    record's content lives here, while pure *execution* knobs (worker
    count, checkpoint path, CSV destination) stay outside — two
    invocations that differ only in execution produce byte-identical
    results and share one fingerprint.
    """

    protocols: Tuple[str, ...] = _option(
        ("heap", "standard"), "comma-separated protocol list")
    nodes: int = _option(100, "population size, source included")
    seconds: float = _option(20.0, "seconds of stream published")
    drain: float = _option(
        40.0, "extra simulated seconds after the source stops")
    distribution: str = _option("ref-691", "capability distribution name")
    loss: float = _option(0.0, "Bernoulli datagram loss rate")
    #: None derives ``base_seed .. base_seed+num_seeds-1``.
    seeds: Optional[Tuple[int, ...]] = _option(
        None, "explicit comma-separated seed list")
    base_seed: int = _option(1, "first seed of the derived seed range")
    num_seeds: int = _option(8, "length of the derived seed range")
    membership: str = _option(
        "directory", "membership substrate: full directory or cyclon "
                     "partial views", choices=("directory", "cyclon"))
    discovery: bool = _option(False, "slow-start capability discovery")
    churn_fraction: float = _option(
        0.0, "crash this fraction of the nodes at --churn-time "
             "(0 = no churn)")
    churn_time: float = _option(
        60.0, "simulated time of the catastrophic failure")
    audit: bool = _option(
        False, "run the gossip-based freerider audit on every node "
               "(enables conviction columns in attack sweeps)")
    #: ``AttackMix.parse`` inputs (kept as the CLI's text form so the
    #: spec stays a plain JSON value).  Only syntax errors surface at
    #: parse time; unknown names, out-of-range fractions and
    #: policy/membership conflicts flow into ``ScenarioConfig.validate``,
    #: which reports all of them in one error.
    attacks: Optional[str] = _option(
        None, "plant an attack mix: comma-separated name=fraction pairs "
              "(fractions of the receiver population; see `repro attacks "
              "--list` for the catalog)", metavar="NAME=FRAC,...")
    attack_params: Optional[str] = _option(
        None, "override attack parameters (defaults come from the "
              "catalog)", metavar="NAME=VALUE,...")
    victim_policy: str = _option(
        "random", "where the attackers sit: random, high-degree, edge, "
                  "or clustered")
    latency_rng: str = _option(
        "shared", "latency randomness mode: 'shared' (one stream in "
                  "global send order) or 'per-pair' (independent "
                  "per-link streams)", choices=("shared", "per-pair"))
    loss_rng: str = _option(
        "shared", "loss randomness mode: 'shared' (one stream in global "
                  "send order) or 'per-pair' (independent per-link "
                  "Bernoulli trials)", choices=("shared", "per-pair"))
    latency_floor: float = _option(
        0.002, "hard lower bound on pairwise latency, seconds")
    #: ``FaultPlan.parse`` input (chaos testing).  An *execution
    #: circumstance*, not an experiment parameter: recovered faulted
    #: runs are byte-identical to clean ones, so the service's
    #: fingerprint leaves the field out — a faulted resubmission finds
    #: the same managed checkpoint as the clean spec.
    faults: Optional[str] = _option(
        None, "deterministic fault injection into the grid: "
              "comma-separated clauses (crash-cell=K[xN], "
              "stall-cell=K:SECS, torn-checkpoint=N); recovered runs are "
              "byte-identical to clean ones", metavar="CLAUSE,...")

    def check(self) -> None:
        """Spec-level validation (scenario-level checks live in
        :meth:`ScenarioConfig.validate`, via :meth:`configs`)."""
        if not self.protocols:
            raise ValueError("no protocols given")
        unknown = [p for p in self.protocols if p not in PROTOCOLS]
        if unknown:
            raise ValueError(f"unknown protocol(s) {', '.join(unknown)}; "
                             f"known: {', '.join(PROTOCOLS)}")
        if not self.seed_list():
            raise ValueError("no seeds given (check --num-seeds)")
        distribution_by_name(self.distribution)  # raises on unknown names
        self.fault_plan()  # raises on bad fault syntax

    # ------------------------------------------------------------------
    # grid inputs
    # ------------------------------------------------------------------
    def seed_list(self) -> List[int]:
        if self.seeds is not None:
            return list(self.seeds)
        return list(range(self.base_seed, self.base_seed + self.num_seeds))

    def adversary(self):
        """The parsed :class:`~repro.adversary.AttackMix`, or None."""
        if not self.attacks:
            return None
        from repro.adversary import AttackMix

        return AttackMix.parse(self.attacks,
                               params_text=self.attack_params or "",
                               victim_policy=self.victim_policy)

    def fault_plan(self):
        """The parsed :class:`~repro.faults.FaultPlan`, or None."""
        if not self.faults:
            return None
        from repro.faults import FaultPlan

        return FaultPlan.parse(self.faults)

    def configs(self) -> List[ScenarioConfig]:
        """One validated ScenarioConfig per protocol — the one builder
        behind ``repro run``, ``repro sweep`` and the service's jobs.
        Faults stay off the configs: ``run_grid`` applies them."""
        adversary = self.adversary()
        configs = [ScenarioConfig(
            name=protocol,
            protocol=protocol,
            n_nodes=self.nodes,
            duration=self.seconds,
            drain=self.drain,
            distribution=distribution_by_name(self.distribution),
            loss_rate=self.loss,
            membership=self.membership,
            capability_discovery=self.discovery,
            # One churn object per config: it carries per-run state.
            churn=(CatastrophicFailure(fraction=self.churn_fraction,
                                       at_time=self.churn_time)
                   if self.churn_fraction > 0 else None),
            adversary=adversary,
            audit=self.audit,
            latency_rng=self.latency_rng,
            loss_rng=self.loss_rng,
            latency_floor=self.latency_floor,
        ) for protocol in self.protocols]
        for config in configs:
            config.validate()
        return configs

    def metrics(self) -> Dict[str, object]:
        """The sweep's metric columns, in CLI column order (module-level
        functions, so any ``jobs`` value works)."""
        from repro.experiments.multi_seed import (
            metric_jitter_free_10s,
            metric_mean_jitter_free_lag,
            metric_mean_utilization,
            metric_offline_delivery,
        )

        metrics = {
            "delivery": metric_offline_delivery,
            "lag_s": metric_mean_jitter_free_lag,
            "jitter_free_10s_pct": metric_jitter_free_10s,
            "utilization": metric_mean_utilization,
        }
        if self.adversary() is not None:
            from repro.adversary import ATTACK_GRID_METRICS

            metrics.update(ATTACK_GRID_METRICS)
        return metrics

    def run(self, **execution):
        """Run the grid this spec describes — the one executor behind
        ``repro sweep`` and the service's ``run``/``sweep`` jobs.
        ``execution`` is :func:`~repro.experiments.parallel.run_grid`'s
        how-to-run keywords (``jobs``, ``checkpoint``, ``progress``, ...);
        returns its :class:`~repro.experiments.parallel.GridResult`."""
        from repro.experiments.parallel import run_grid

        return run_grid(self.configs(), self.seed_list(), self.metrics(),
                        faults=self.fault_plan(), **execution)


@dataclass(frozen=True)
class RenderSpec(_ParamSpec):
    """What regenerating a registered figure/table/ablation takes."""

    id: str = _option("", "artifact id for figure/table/ablation kinds")
    scale: Optional[str] = _option(
        None, "experiment scale (default: REPRO_SCALE)",
        choices=tuple(sorted(_SCALES)))

    def check(self) -> None:
        if self.scale is not None and self.scale not in _SCALES:
            raise ValueError(f"unknown scale {self.scale!r}; known: "
                             f"{', '.join(sorted(_SCALES))}")


# ----------------------------------------------------------------------
# the table's two argparse faces
# ----------------------------------------------------------------------
def add_spec_arguments(parser, spec=SweepSpec, defaults: bool = True,
                       exclude: Tuple[str, ...] = ()) -> None:
    """Add one ``--flag`` per field of ``spec`` to an argparse parser.

    ``defaults=False`` leaves every flag at ``None`` (the ``submit``
    shape: only what the user set travels, the server fills in the
    rest from the same table).
    """
    hints = _hints(spec)
    for f in fields(spec):
        if f.name in exclude:
            continue
        kind = _value_type(hints[f.name])
        options = dict(f.metadata, default=f.default if defaults else None)
        if defaults and f.default not in (None, False):
            shown = (",".join(f.default) if isinstance(f.default, tuple)
                     else f.default)
            options["help"] += f" (default {shown})"
        if kind is bool:
            options["action"] = "store_true"
        elif kind in (int, float):
            options["type"] = kind
        parser.add_argument("--" + f.name.replace("_", "-"), **options)


def spec_params(args, spec=SweepSpec) -> Dict[str, object]:
    """The ``spec`` parameters set on a parsed namespace (``None`` =
    not given: defer to the table's default)."""
    values = vars(args)
    return {f.name: values[f.name] for f in fields(spec)
            if values.get(f.name) is not None}


# ----------------------------------------------------------------------
# coercion: a field's annotation is its rule
# ----------------------------------------------------------------------
def _value_type(hint):
    """The annotation without its ``Optional[...]`` wrapper."""
    if get_origin(hint) is Union:
        return next(arg for arg in get_args(hint) if arg is not type(None))
    return hint


_EXPECTED = {int: "an integer", float: "a number", str: "a string",
             bool: "a JSON boolean (true/false)"}


def _scalar(kind, value):
    """``value`` as ``kind``; raises TypeError/ValueError if it is not."""
    if kind in (bool, str):
        if not isinstance(value, kind):
            raise TypeError(value)
        return value
    if isinstance(value, bool):
        raise TypeError(value)
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return kind(value)


def _coerce(name: str, hint, value):
    """``value`` coerced to field ``name``'s declared type."""
    kind = _value_type(hint)
    if value is None and kind is not hint:
        return None  # Optional[...] field left unset
    listed = get_origin(kind) is tuple
    if listed:
        kind = get_args(kind)[0]
    try:
        if not listed:
            return _scalar(kind, value)
        # List-valued: a JSON list or the CLI's comma-separated string.
        items = ([part.strip() for part in value.split(",") if part.strip()]
                 if isinstance(value, str) else value)
        if not isinstance(items, (list, tuple)):
            raise TypeError(value)
        return tuple(_scalar(kind, item) for item in items)
    except (TypeError, ValueError):
        expected = _EXPECTED[kind]
        if listed:
            expected = ("a list or comma-separated string, each item "
                        + expected)
        raise ValueError(f"{name} must be {expected}, "
                         f"got {value!r}") from None
