"""Scenario configuration: one experiment run, fully described.

A scenario bundles everything the runner needs — population size,
protocol, capability distribution, stream and gossip parameters, network
conditions, churn — under a single seed, so a scenario value *is* the
experiment identity: same scenario, same result, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from math import isfinite
from typing import List, Optional, TYPE_CHECKING

from repro.core.config import GossipConfig
from repro.streaming.packets import StreamConfig
from repro.workloads.churn import CatastrophicFailure
from repro.workloads.distributions import KBPS, REF_691, CapabilityDistribution

if TYPE_CHECKING:  # pragma: no cover
    from repro.adversary.mix import AttackMix

#: Protocols the runner knows how to build.
PROTOCOLS = ("standard", "heap", "tree")

def nonfinite_fields(value, prefix: str = "") -> List[str]:
    """The names of ``value``'s float fields that hold NaN or an
    infinity, nested dataclass fields included (dotted).

    One check for every float a config or spec declares: NaN passes
    every ``<=`` / ``<`` range test, so a per-field comparison cannot
    refuse it, and an infinite time never ends a run.
    """
    bad = []
    for f in fields(value):
        item = getattr(value, f.name)
        if isinstance(item, float) and not isfinite(item):
            bad.append(prefix + f.name)
        elif is_dataclass(item):
            bad.extend(nonfinite_fields(item, f"{prefix}{f.name}."))
    return bad


#: Version of the per-link stream derivation behind ``latency_rng`` /
#: ``loss_rng`` ``"per-pair"`` (the SplitMix64 link streams of
#: :mod:`repro.sim.rng`).  Part of :func:`scenario_key` for per-pair
#: scenarios: bump it whenever their draws would change.
PER_PAIR_STREAMS = 2


@dataclass
class ScenarioConfig:
    """Everything needed to run one dissemination experiment."""

    name: str = "scenario"
    #: One of "standard" (Algorithm 1), "heap" (Algorithm 2) or "tree"
    #: (the static-tree baseline the introduction argues against).
    protocol: str = "heap"
    #: Total node count *including* the source (node 0).
    n_nodes: int = 100
    #: Seconds of stream published.
    duration: float = 30.0
    #: Extra simulated seconds after the source stops, so in-flight
    #: packets settle and offline metrics are exact.
    drain: float = 30.0
    #: Stream publication start (leaves the aggregation protocol a short
    #: warm-up, as a real deployment would have).
    stream_start: float = 2.0
    seed: int = 1

    distribution: CapabilityDistribution = REF_691
    stream: StreamConfig = field(default_factory=StreamConfig)
    gossip: GossipConfig = field(default_factory=GossipConfig)

    #: The source's uplink (well provisioned, as on the paper's testbed).
    source_capacity_bps: float = 5 * 2048 * KBPS
    #: Capability the source *advertises* to the fanout-adaptation and
    #: aggregation protocols.  None means "the distribution average", so
    #: the source gossips like an average node and its big uplink is pure
    #: headroom — advertising the raw uplink would make every node pull
    #: directly from the source and congest it.
    source_advertised_bps: Optional[float] = None
    #: Mean failure-detection delay (paper: ~10 s).
    mean_detection_delay: float = 10.0
    #: Bernoulli datagram loss rate (0 disables the loss model).
    loss_rate: float = 0.0
    #: How loss randomness is drawn: "shared" consumes one stream in
    #: global send order (the historical behaviour, golden-pinned);
    #: "per-pair" derives an independent stream per directed link, making
    #: drop decisions a pure function of each sender's own send sequence
    #: — the mode sharded execution requires when ``loss_rate > 0``.
    loss_rng: str = "shared"
    #: Median of the pairwise base latency distribution, seconds.
    latency_median: float = 0.05
    #: Per-message uniform jitter on top of the base latency, seconds.
    latency_jitter: float = 0.01
    #: Hard lower bound (floor) of the base latency, seconds.  Doubles
    #: as the conservative lookahead of sharded execution: shards
    #: synchronize every ``latency_floor`` simulated seconds, so larger
    #: floors mean fewer cross-shard barriers.
    latency_floor: float = 0.002
    #: How latency/jitter randomness is drawn: "shared" consumes one
    #: stream in global send order (the historical behaviour, pinned by
    #: the golden traces); "per-pair" derives an independent stream per
    #: link, making arrivals a pure function of each sender's own send
    #: sequence — the mode sharded execution requires.
    latency_rng: str = "shared"
    #: Optional catastrophic failure (Section 3.6).
    churn: Optional[CatastrophicFailure] = None

    #: Fraction of nodes whose *effective* uplink is degraded below their
    #: advertised capability (the paper's overloaded PlanetLab hosts,
    #: "between 5% and 7%" contributing far less than their limit).
    degraded_fraction: float = 0.0
    #: Effective capacity multiplier for degraded nodes.
    degraded_factor: float = 0.5

    #: Bias exponent for the source's first-hop target selection
    #: (0 = uniform, the paper's default; >0 explores its §5 extension).
    source_bias: float = 0.0

    #: Membership substrate: "directory" (full membership, the paper's
    #: PlanetLab assumption) or "cyclon" (decentralized partial views
    #: from the peer-sampling service).
    membership: str = "directory"
    #: Partial-view size when membership == "cyclon".
    cyclon_view_size: int = 20

    #: The scenario's adversary: a weighted attack mix plus a victim
    #: placement policy (see :class:`repro.adversary.mix.AttackMix`).
    #: None means an honest population.
    adversary: Optional["AttackMix"] = None
    #: Run the gossip-based freerider audit on every node.
    audit: bool = False

    #: Discover upload capabilities at join time instead of trusting the
    #: configured value: nodes advertise ``discovery_initial_bps`` and
    #: slow-start toward their real uplink (§2.2's joining heuristic).
    capability_discovery: bool = False
    discovery_initial_bps: float = 128 * KBPS

    #: Partition the node population across this many worker shards and
    #: run them in parallel with conservative time-window synchronization
    #: (see :mod:`repro.net.shard`).  0 or 1 runs in-process.  Sharding
    #: is an execution strategy, not an experiment parameter: a sharded
    #: run produces byte-identical metric summaries to the serial run of
    #: the same scenario (it requires ``latency_rng="per-pair"`` — and
    #: ``loss_rng="per-pair"`` when lossy — so that random draws do not
    #: depend on global event order).
    shards: int = 0

    # ------------------------------------------------------------------
    def violations(self) -> List[str]:
        """Every way this scenario is invalid, as human-readable strings.

        :meth:`validate` joins them into a single :class:`ValueError`, so
        a config with three problems reports all three at once instead of
        failing one field at a time.
        """
        errors = []
        nonfinite = nonfinite_fields(self)
        if nonfinite:
            errors.append(f"must be finite: {', '.join(nonfinite)}")
        if self.protocol not in PROTOCOLS:
            errors.append(
                f"unknown protocol {self.protocol!r}; known: {PROTOCOLS}")
        if self.n_nodes < 2:
            errors.append("need at least a source and one receiver")
        if self.duration <= 0:
            errors.append("duration must be positive")
        if self.drain < 0:
            errors.append("drain must be >= 0")
        if self.stream_start < 0:
            errors.append("stream_start must be >= 0")
        if not 0.0 <= self.loss_rate < 1.0:
            errors.append("loss rate must be in [0, 1)")
        if self.source_capacity_bps <= 0:
            errors.append("source capacity must be positive")
        if not 0.0 <= self.degraded_fraction <= 1.0:
            errors.append("degraded fraction must be in [0, 1]")
        if not 0.0 < self.degraded_factor <= 1.0:
            errors.append("degraded factor must be in (0, 1]")
        if self.source_bias < 0:
            errors.append("source bias must be >= 0")
        if self.membership not in ("directory", "cyclon"):
            errors.append(f"unknown membership {self.membership!r}")
        if self.cyclon_view_size < 2:
            errors.append("cyclon view size must be >= 2")
        errors.extend(self._adversary_violations())
        if self.discovery_initial_bps <= 0:
            errors.append("discovery initial capability must be positive")
        if self.latency_median <= 0:
            errors.append("latency median must be positive")
        if self.latency_jitter < 0:
            errors.append("latency jitter must be >= 0")
        if self.latency_floor < 0:
            errors.append("latency floor must be >= 0")
        if self.latency_rng not in ("shared", "per-pair"):
            errors.append(f"unknown latency_rng {self.latency_rng!r}; "
                          f"known: 'shared', 'per-pair'")
        if self.loss_rng not in ("shared", "per-pair"):
            errors.append(f"unknown loss_rng {self.loss_rng!r}; "
                          f"known: 'shared', 'per-pair'")
        if self.shards < 0:
            errors.append("shards must be >= 0")
        if self.shards > 1:
            if self.shards >= self.n_nodes:
                errors.append("need at least one node per shard")
            if self.latency_rng != "per-pair":
                errors.append(
                    "sharded execution needs order-independent latency "
                    "draws; set latency_rng='per-pair'")
            if self.loss_rate > 0 and self.loss_rng != "per-pair":
                errors.append(
                    "sharded execution needs order-independent loss "
                    "draws; set loss_rng='per-pair' (the 'shared' model "
                    "consumes one stream in global send order)")
            if self.latency_floor <= 0:
                errors.append("sharded execution needs a positive "
                              "latency_floor (it is the lookahead)")
        for sub in (self.stream, self.gossip):
            try:
                sub.validate()
            except ValueError as exc:
                errors.append(str(exc))
        return errors

    def _adversary_violations(self) -> List[str]:
        if self.adversary is None:
            return []
        errors = list(self.adversary.violations())
        if self.protocol != "heap":
            errors.append("attacks are modelled for the heap protocol")
        required = self.adversary.required_membership()
        if required is not None and self.membership != required:
            errors.append(
                f"attack mix needs membership={required!r} "
                f"(got {self.membership!r})")
        return errors

    def validate(self) -> None:
        errors = self.violations()
        if errors:
            raise ValueError("; ".join(errors))

    def with_(self, **overrides) -> "ScenarioConfig":
        """A modified copy (convenience over dataclasses.replace)."""
        return replace(self, **overrides)

    @property
    def end_time(self) -> float:
        """Simulated time at which the run finishes."""
        return self.stream_start + self.duration + self.drain

    @property
    def total_packets(self) -> int:
        """Packets the source will publish (whole windows only)."""
        return self.stream.packets_for_duration(self.duration)


def scenario_key(config: ScenarioConfig) -> str:
    """Stable value-identity of a scenario, usable as a cache key.

    Derived from *every* field so newly added scenario options can never
    alias two different experiments; object-valued fields are reduced to
    stable identities (distributions by name, churn by its configuration,
    never its per-run state).  The same key is used by the grid's cell
    dedupe and the JSONL checkpoint fingerprint, so both agree on what
    "the same run" means.
    """
    import dataclasses

    parts = []
    for field_ in dataclasses.fields(config):
        if field_.name == "shards":
            # Sharding is an execution strategy, not an experiment
            # parameter: a sharded run is byte-identical to the serial
            # run of the same scenario (tests/test_sharded_scenario.py),
            # so shard counts share one cache/checkpoint identity.
            continue
        value = getattr(config, field_.name)
        if field_.name == "adversary":
            # Honest scenarios skip the field entirely: their keys do
            # not depend on the adversary engine's representation.
            if value is None:
                continue
            value = value.key()
        elif field_.name == "distribution":
            value = value.name
        elif field_.name == "churn":
            value = value.key() if value is not None else None
        parts.append((field_.name, repr(value)))
    if "per-pair" in (config.latency_rng, config.loss_rng):
        # Which derivation the per-link streams use is part of what a
        # per-pair run *is*: bumping it strands checkpoints and cached
        # results computed under the previous one instead of resuming
        # them into a mixed grid.  Shared-mode keys never carry it.
        parts.append(("per_pair_streams", repr(PER_PAIR_STREAMS)))
    return repr(parts)
