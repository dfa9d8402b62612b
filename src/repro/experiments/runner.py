"""Scenario execution: build the system, run it, collect results.

The runner wires together every substrate — simulator, network fabric,
membership, stream source, protocol nodes — from one
:class:`~repro.workloads.scenario.ScenarioConfig`, runs to the scenario's
horizon and returns an :class:`ExperimentResult`: plain data (receiver
logs, uplinks, traffic stats, per-node end state) enough to compute any
of the paper's metrics offline.

Node 0 is always the stream source; nodes 1..n-1 are receivers whose
upload capacities come from the scenario's capability distribution.

Construction and execution are split: :func:`build_scenario` wires the
full system and starts its active components, :func:`run_scenario` then
drives the event loop to the horizon.  The split exists for the sharded
execution engine (:mod:`repro.net.shard`): a shard worker builds the
*entire* scenario — setup must consume every shared random stream in
exactly the serial order, so the values assigned to its own nodes match
the serial run — but passes ``owned`` so only its partition's nodes,
samplers, probers and (for shard 0) the stream source actually start.
Every run ends the same way: :meth:`ScenarioBuild.harvest` takes the
build's end state and :func:`merge_harvests` makes the result — from
one harvest in-process, from one per shard when ``config.shards > 1``
delegates :func:`run_scenario` to the sharded engine.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.adversary.mix import Placement, place_attackers
from repro.adversary.registry import get_attack
from repro.baselines.tree import StaticTreeNode, build_kary_tree
from repro.core.discovery import CapabilityProber
from repro.core.heap import HeapGossipNode
from repro.core.standard import StandardGossipNode
from repro.freeriders.detection import FreeriderDetector, FrozenDetector
from repro.membership.directory import Membership, MembershipDirectory
from repro.membership.peer_sampling import PeerSamplingService
from repro.membership.selector import CapabilityBiasedSelector
from repro.membership.view import LocalView
from repro.net.bandwidth import UplinkQueue
from repro.net.latency import PairwiseLatency, PerPairLatency
from repro.net.loss import BernoulliLoss, PerPairLoss
from repro.net.network import Network
from repro.net.router import Router
from repro.net.stats import NetworkStats
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry, derive_seed
from repro.streaming.player import PlaybackAnalyzer
from repro.streaming.receiver import ReceiverLog
from repro.streaming.source import StreamSource
from repro.workloads.scenario import ScenarioConfig

#: The stream source is always node 0.
SOURCE_ID = 0


class SimRecord:
    """What a finished run's simulator leaves behind."""

    __slots__ = ("events_executed", "now")

    def __init__(self, events_executed: int, now: float):
        self.events_executed = events_executed
        self.now = now


class NetRecord:
    """A finished run's traffic: fabric-wide stats and every uplink."""

    __slots__ = ("stats", "_uplinks")

    def __init__(self, stats: NetworkStats, uplinks: Dict[int, UplinkQueue]):
        self.stats = stats
        self._uplinks = uplinks

    def uplink(self, node_id: int) -> UplinkQueue:
        return self._uplinks[node_id]


class NodeRecord:
    """One node's end state: its receiver log, the packets it served,
    and the adaptation state the ablations read — its fanout before
    per-round quantization, its aggregation estimate of the average
    capability and its advertised capability.  A value is ``None``
    where the node has none (tree nodes have no fanout; only HEAP nodes
    aggregate)."""

    __slots__ = ("log", "packets_served", "fanout", "capability_estimate",
                 "capability_bps")

    def __init__(self, log: ReceiverLog, packets_served: int,
                 fanout: Optional[float],
                 capability_estimate: Optional[float],
                 capability_bps: Optional[float]):
        self.log = log
        self.packets_served = packets_served
        self.fanout = fanout
        self.capability_estimate = capability_estimate
        self.capability_bps = capability_bps


class ExperimentResult:
    """Everything a metric needs about one finished run, as plain data.

    Made only by :func:`merge_harvests`, from one harvest (a serial run)
    or one per shard; it holds no simulator, network or live node, so
    it pickles and the build graph it came from is garbage.
    """

    def __init__(self, config: ScenarioConfig, sim: SimRecord,
                 net: NetRecord, nodes: List[NodeRecord],
                 publish_times: List[float], capacities: List[float],
                 labels: List[str], crash_times: Dict[int, float],
                 detectors: Dict[int, FrozenDetector], attackers: Placement,
                 attacker_stats: Dict[int, Dict[str, int]]):
        self.config = config
        self.sim = sim
        self.net = net
        self.nodes = nodes
        self.publish_times = publish_times
        self.capacities = capacities
        self.labels = labels
        self.crash_times = crash_times
        self.detectors = detectors
        #: node_id -> (attack name, attack parameter) for every attacker.
        self.attackers = attackers
        #: node_id -> attack-specific counters (``attack_stats()``).
        self.attacker_stats = attacker_stats
        self._analyzer: Optional[PlaybackAnalyzer] = None

    @property
    def freerider_ids(self) -> List[int]:
        """The attackers' ids, sorted (what the freerider analysis reads)."""
        return sorted(self.attackers)

    # ------------------------------------------------------------------
    # stream geometry
    # ------------------------------------------------------------------
    @property
    def total_packets(self) -> int:
        return len(self.publish_times)

    def windows(self) -> range:
        """Ids of the fully published windows."""
        return range(self.total_packets // self.config.stream.packets_per_window)

    def analyzer(self) -> PlaybackAnalyzer:
        """The result's one :class:`PlaybackAnalyzer`, made on first use.

        Every metric of a summary bundle asks through it, so they share
        its per-window memo: each receiver window is read once however
        many metrics need it.
        """
        if self._analyzer is None:
            self._analyzer = PlaybackAnalyzer(self.config.stream,
                                              self.publish_times.__getitem__)
        return self._analyzer

    # ------------------------------------------------------------------
    # population accessors
    # ------------------------------------------------------------------
    def receiver_ids(self, include_crashed: bool = False) -> List[int]:
        """All nodes except the source, optionally excluding crash victims."""
        ids = []
        for node_id in range(1, self.config.n_nodes):
            if not include_crashed and node_id in self.crash_times:
                continue
            ids.append(node_id)
        return ids

    def log_of(self, node_id: int) -> ReceiverLog:
        return self.nodes[node_id].log

    def label_of(self, node_id: int) -> str:
        return self.labels[node_id]

    def capacity_of(self, node_id: int) -> float:
        return self.capacities[node_id]

    def class_labels(self) -> List[str]:
        """Distinct receiver class labels, poorest (slowest) first."""
        by_capacity: Dict[str, float] = {}
        for node_id in range(1, self.config.n_nodes):
            by_capacity.setdefault(self.labels[node_id], self.capacities[node_id])
        return sorted(by_capacity, key=by_capacity.get)

    def receivers_in_class(self, label: str, include_crashed: bool = False) -> List[int]:
        return [node_id for node_id in self.receiver_ids(include_crashed)
                if self.labels[node_id] == label]

    # ------------------------------------------------------------------
    # bandwidth accounting
    # ------------------------------------------------------------------
    def uplink_utilization(self, node_id: int) -> float:
        """Fraction of the node's upload capability actually used, over
        its lifetime inside the measurement interval."""
        start = self.config.stream_start
        end = self.crash_times.get(node_id, self.config.stream_start + self.config.duration)
        elapsed = max(1e-9, end - start)
        return self.net.uplink(node_id).utilization(elapsed)


def _place_scenario_attackers(config: ScenarioConfig,
                              capacities: Sequence[float]) -> Placement:
    """Which receivers misbehave, and how (empty for honest scenarios)."""
    if config.protocol != "heap" or config.adversary is None:
        return {}
    return place_attackers(config.adversary, seed=config.seed,
                           n_nodes=config.n_nodes, capacities=capacities)


def _collect_attacker_stats(nodes: List, samplers: Dict, attackers: Placement,
                            owned: Optional[Set[int]] = None
                            ) -> Dict[int, Dict[str, int]]:
    """node_id -> the attack-specific counters its implementation kept.

    A shard worker passes ``owned``: an unstarted replica's counters are
    all zero and must not shadow the owner's real ones in the merge.
    """
    stats: Dict[int, Dict[str, int]] = {}
    for node_id in sorted(attackers):
        if owned is not None and node_id not in owned:
            continue
        collected: Dict[str, int] = {}
        node = nodes[node_id]
        if hasattr(node, "attack_stats"):
            collected.update(node.attack_stats())
        sampler = samplers.get(node_id)
        if sampler is not None and hasattr(sampler, "attack_stats"):
            collected.update(sampler.attack_stats())
        stats[node_id] = collected
    return stats


def _build_gossip_nodes(config: ScenarioConfig, sim: Simulator, net: Network,
                        views, registry: RngRegistry,
                        capacities: Sequence[float],
                        attackers: Placement) -> List:
    node_class = HeapGossipNode if config.protocol == "heap" else StandardGossipNode
    nodes = []
    for node_id in range(config.n_nodes):
        rng = registry.fork(f"node-{node_id}").stream("protocol")
        spec = attackers.get(node_id)
        if spec is not None and get_attack(spec[0]).role == "node":
            name, param = spec
            node = get_attack(name).impl(sim, net, node_id, views[node_id],
                                         config.gossip, rng,
                                         capacities[node_id], param)
        else:
            # Honest, or a sampler-role attacker whose gossip node IS
            # honest (the misbehaviour lives in its sampling service).
            node = node_class(sim, net, node_id, views[node_id],
                              config.gossip, rng, capacities[node_id])
        nodes.append(node)
    if config.source_bias > 0:
        capability_of = lambda node_id: capacities[node_id]  # noqa: E731
        nodes[SOURCE_ID].selector = CapabilityBiasedSelector(
            registry.stream("source-bias"), capability_of, bias=config.source_bias)
    return nodes


def _build_tree_nodes(config: ScenarioConfig, sim: Simulator, net: Network,
                      capacities: Sequence[float]) -> List:
    # Tree arity mirrors the gossip fanout so the comparison is
    # like-for-like in out-degree.
    children = build_kary_tree(range(config.n_nodes), arity=int(config.gossip.fanout))
    return [StaticTreeNode(sim, net, node_id, children[node_id], capacities[node_id])
            for node_id in range(config.n_nodes)]


class ScenarioBuild:
    """A fully wired, started scenario that has not yet been run.

    Holds every substrate :func:`run_scenario` needs to drive the event
    loop; shard workers hold one per shard and drive the loop in windows
    instead.  Either way the run ends in :meth:`harvest`.
    """

    def __init__(self, config: ScenarioConfig, sim: Simulator, net: Network,
                 nodes: List, publish_times: List[float],
                 capacities: List[float], labels: List[str],
                 crash_times: Dict[int, float], detectors: Dict,
                 samplers: Dict, attackers: Placement):
        self.config = config
        self.sim = sim
        self.net = net
        self.nodes = nodes
        self.publish_times = publish_times
        self.capacities = capacities
        self.labels = labels
        self.crash_times = crash_times
        self.detectors = detectors
        self.samplers = samplers
        self.attackers = attackers

    @property
    def freerider_ids(self) -> List[int]:
        return sorted(self.attackers)

    def harvest(self, owned: Optional[Set[int]] = None) -> dict:
        """The run's end state as picklable plain data.

        Per-node values cover ``owned`` (a shard's partition; every node
        when ``None``): an unstarted replica's state never ran, so it
        must not reach the merge.  Replicated state (crash times,
        attacker placement) is harvested whole, and the merge verifies
        it agrees across shards.
        """
        nodes = self.nodes
        ids = range(len(nodes)) if owned is None else sorted(owned)
        return {
            "logs": {i: nodes[i].log for i in ids},
            "uplinks": {i: self.net.uplink(i) for i in ids},
            "served": {i: getattr(nodes[i], "packets_served", 0)
                       for i in ids},
            "fanout": {i: nodes[i].current_fanout() for i in ids
                       if hasattr(nodes[i], "current_fanout")},
            "capability_estimate": {
                i: nodes[i].average_capability_estimate() for i in ids
                if hasattr(nodes[i], "average_capability_estimate")},
            "capability_bps": {i: nodes[i].capability_bps for i in ids},
            "detectors": {i: self.detectors[i].snapshot() for i in ids
                          if i in self.detectors},
            "attacker_stats": _collect_attacker_stats(
                nodes, self.samplers, self.attackers, owned=owned),
            "attackers": self.attackers,
            "crash_times": dict(self.crash_times),
            "stats": self.net.stats,
            "publish_times": self.publish_times,
            "labels": self.labels,
            "capacities": self.capacities,
            "events_executed": self.sim.events_executed,
            "now": self.sim.now,
        }

    def result(self) -> ExperimentResult:
        return merge_harvests(self.config, [self.harvest()])


def merge_harvests(config: ScenarioConfig,
                   harvests: List[dict]) -> ExperimentResult:
    """Assemble one :class:`ExperimentResult` from :meth:`ScenarioBuild.harvest`
    dicts: one for a serial run, one per shard for a sharded one.

    Per-node values and detector snapshots are disjoint by ownership
    (``fanout``, ``capability_estimate``, ``capability_bps``, ``served``,
    ``detectors`` and ``attacker_stats`` may be absent); traffic stats
    are commutative sums; crash times and attacker placement are
    replicated state, verified equal across shards here (a mismatch
    means the replicated streams diverged — fail loudly rather than
    pick one).  ``events_executed`` is the sum over shards.  Every
    non-replicated event (a delivery, an owned node's timer) runs on
    exactly one shard, so for a churn-free scenario the sum equals the
    serial run's count; *replicated churn* (crashes and their detection
    notifications, applied on every shard) adds its events once per
    extra replica.
    """
    per_node = {key: {} for key in ("logs", "uplinks", "served", "fanout",
                                    "capability_estimate", "capability_bps",
                                    "detectors", "attacker_stats")}
    stats = NetworkStats()
    events = 0
    now = 0.0
    first = harvests[0]
    crash_times = first["crash_times"]
    attackers = first.get("attackers", {})
    for index, harvest in enumerate(harvests):
        for key, merged in per_node.items():
            merged.update(harvest.get(key, {}))
        stats.merge_from(harvest["stats"])
        events += harvest["events_executed"]
        now = max(now, harvest["now"])
        if harvest["crash_times"] != crash_times:
            raise RuntimeError(
                f"membership divergence: shard {index} recorded crash "
                f"times {harvest['crash_times']} but shard 0 recorded "
                f"{crash_times}")
        if harvest.get("attackers", {}) != attackers:
            raise RuntimeError(
                f"adversary divergence: shard {index} placed attackers "
                f"{harvest.get('attackers', {})} but shard 0 placed "
                f"{attackers}")
    logs = per_node["logs"]
    served = per_node["served"]
    fanout = per_node["fanout"]
    estimate = per_node["capability_estimate"]
    capability = per_node["capability_bps"]
    nodes = [NodeRecord(logs[i], served.get(i, 0), fanout.get(i),
                        estimate.get(i), capability.get(i))
             for i in range(config.n_nodes)]
    source = next(h for h in harvests if SOURCE_ID in h["logs"])
    return ExperimentResult(
        config, SimRecord(events, now),
        NetRecord(stats, per_node["uplinks"]), nodes,
        publish_times=source["publish_times"],
        capacities=first["capacities"], labels=first["labels"],
        crash_times=dict(crash_times), detectors=per_node["detectors"],
        attackers=attackers, attacker_stats=per_node["attacker_stats"])


def build_scenario(config: ScenarioConfig, *,
                   owned: Optional[Set[int]] = None,
                   router: Optional[Router] = None) -> ScenarioBuild:
    """Wire a scenario and start its active components.

    ``owned=None`` (the in-process default) starts everything.  A shard
    worker passes its node partition: the *whole* system is still built
    — all shared setup randomness (capability assignment, bootstrap
    views, discovery phases, freerider picks) is consumed in the serial
    order, so every shard assigns identical values — but timers, stream
    source and co-protocols start only for owned nodes.  ``router``
    replaces the network's default in-process delivery router.
    """
    sim = Simulator()
    registry = RngRegistry(config.seed)

    def owns(node_id: int) -> bool:
        return owned is None or node_id in owned

    if config.latency_rng == "per-pair":
        latency = PerPairLatency(derive_seed(config.seed, "latency-pairs"),
                                 median_base=config.latency_median,
                                 jitter=config.latency_jitter,
                                 floor=config.latency_floor)
    else:
        latency = PairwiseLatency(registry.stream("latency"),
                                  median_base=config.latency_median,
                                  jitter=config.latency_jitter,
                                  floor=config.latency_floor)
    if config.loss_rate <= 0:
        loss = None
    elif config.loss_rng == "per-pair":
        loss = PerPairLoss(derive_seed(config.seed, "loss-pairs"),
                           config.loss_rate)
    else:
        loss = BernoulliLoss(registry.stream("loss"), config.loss_rate)
    net = Network(sim, latency=latency, loss=loss, router=router)

    # Membership: the ground truth (roster, alive set, crash victims) in
    # every run; the full-membership views and their delayed crash
    # notifications only when gossip nodes read them.  Cyclon nodes read
    # their samplers' partial views and tree nodes read no view, so
    # neither draws detection delays nor queues notifications.
    directory_views = (config.membership == "directory"
                       and config.protocol != "tree")
    if directory_views:
        directory: Membership = MembershipDirectory(
            sim, registry.stream("detection"),
            mean_detection_delay=config.mean_detection_delay)
    else:
        directory = Membership()
    directory.register_all(range(config.n_nodes))

    # Capacity assignment: node 0 (source) fixed, receivers from the
    # distribution.
    assignment = config.distribution.assign(config.n_nodes - 1,
                                            registry.stream("workload"))
    labels = ["source"] + [label for label, _ in assignment]
    capacities = [config.source_capacity_bps] + [cap for _, cap in assignment]

    # Adversary placement: a pure function of (mix, seed, population,
    # capacities) with its own derived RNGs, so computing it here — every
    # shard replicates it identically — consumes no shared stream draws.
    attackers = _place_scenario_attackers(config, capacities)
    freerider_ids = sorted(attackers)

    # Membership views: the directory's (full membership), the
    # peer-sampling service's partial views, or none (the tree).
    samplers: Dict[int, PeerSamplingService] = {}
    views: Dict[int, LocalView] = {}
    if directory_views:
        views = {node_id: directory.view_of(node_id)
                 for node_id in range(config.n_nodes)}
    elif config.protocol != "tree":
        boot_rng = registry.stream("cyclon-bootstrap")
        n_others = config.n_nodes - 1
        boot_size = min(config.cyclon_view_size, n_others)
        for node_id in range(config.n_nodes):
            rng = registry.fork(f"cyclon-{node_id}").stream("shuffle")
            view_size = config.cyclon_view_size
            shuffle_length = max(2, config.cyclon_view_size // 2)
            spec = attackers.get(node_id)
            if spec is not None and get_attack(spec[0]).role == "sampler":
                name, param = spec
                # Sampler convention: honest signature, then the attack
                # parameter, then the attacker coalition's ids.
                sampler = get_attack(name).impl(
                    sim, net, node_id, rng, view_size, shuffle_length, 1.0,
                    param, tuple(freerider_ids))
            else:
                sampler = PeerSamplingService(
                    sim, net, node_id, rng, view_size=view_size,
                    shuffle_length=shuffle_length)
            # Sampling positions of the other ids (see "Sampling
            # identity" in repro.membership.view): the draws and ids of
            # a sample over the list of all ids but this node's.
            sampler.bootstrap([
                j if j < node_id else j + 1
                for j in boot_rng.sample(range(n_others), boot_size)])
            samplers[node_id] = sampler
        views = {node_id: samplers[node_id].view
                 for node_id in range(config.n_nodes)}

    if config.protocol == "tree":
        nodes = _build_tree_nodes(config, sim, net, capacities)
    else:
        nodes = _build_gossip_nodes(config, sim, net, views, registry,
                                    capacities, attackers)
        # The source advertises an average capability (see ScenarioConfig)
        # and gossips with the base fanout regardless of the aggregation
        # estimate: adapting the broadcaster's fanout to its oversized
        # uplink would make every node pull payloads straight from it and
        # congest it (fanout >= 1 is all reliability needs of the source).
        advertised = config.source_advertised_bps
        if advertised is None:
            advertised = config.distribution.average_bps()
        nodes[SOURCE_ID].capability_bps = advertised
        if config.protocol == "heap":
            from repro.core.fanout import FixedFanout
            nodes[SOURCE_ID].set_fanout_policy(
                FixedFanout(config.gossip.fanout, mode="round"))

    for node_id, node in enumerate(nodes):
        net.attach(node_id, node, upload_capacity_bps=capacities[node_id])

    # Co-hosted protocols: peer sampling and the freerider audit ride the
    # same endpoint by merging their kind-id tables into the node's
    # dispatch table (captured live by the network at attach time).
    detectors: Dict[int, FreeriderDetector] = {}
    if samplers:
        for node_id, node in enumerate(nodes):
            sampler = samplers[node_id]
            node.register_handlers(sampler.dispatch_table())
            if owns(node_id):
                sampler.start()
    # Capability discovery: HEAP receivers start from a low advertised
    # capability and slow-start toward their physical uplink (§2.2).
    probers: Dict[int, CapabilityProber] = {}
    if config.capability_discovery and config.protocol == "heap":
        for node_id in range(1, config.n_nodes):
            node = nodes[node_id]
            node.capability_bps = config.discovery_initial_bps
            # The phase draw is consumed for *every* node (shared
            # stream), so owned nodes see their serial-run phases.
            phase = registry.stream("discovery").uniform(0.0, 1.0)
            if not owns(node_id):
                continue
            prober = CapabilityProber(
                sim, net.uplink(node_id),
                initial_bps=config.discovery_initial_bps,
                ceiling_bps=capacities[node_id],
                on_change=lambda bps, n=node: setattr(n, "capability_bps", bps))
            prober.start(phase=phase)
            probers[node_id] = prober
        # Discovery is a join-time mechanism: freeze advertisements when
        # the stream ends so drain-phase silence does not erode them.
        sim.schedule_at(config.stream_start + config.duration,
                        lambda: [p.stop() for p in probers.values()])

    if config.audit and config.protocol != "tree":
        for node_id, node in enumerate(nodes):
            # Built for every node (the audit stream is a per-node fork,
            # so skipping draws is safe) but started only when owned: a
            # node's detector lives wholly on its owner shard and its
            # evidence is harvested into the merged result.
            detector = FreeriderDetector(
                sim, net, node_id, views[node_id],
                registry.fork(f"audit-{node_id}").stream("audit"))
            node.register_handlers(detector.dispatch_table())
            node.on_request_sent = detector.record_request
            node.on_serve_received = detector.record_serve
            if owns(node_id):
                detector.start()
            detectors[node_id] = detector

    # Degraded nodes: advertised capability unchanged, effective uplink cut.
    if config.degraded_fraction > 0:
        degraded_rng = registry.stream("degraded")
        receivers = list(range(1, config.n_nodes))
        count = round(config.degraded_fraction * len(receivers))
        for node_id in degraded_rng.sample(receivers, count):
            uplink = net.uplink(node_id)
            uplink.set_capacity(uplink.capacity_bps * config.degraded_factor)

    for node_id, node in enumerate(nodes):
        if owns(node_id):
            node.start()

    # The stream.
    publish_times: List[float] = []

    def publish(packet):
        publish_times.append(packet.publish_time)
        nodes[SOURCE_ID].publish(packet)

    if owns(SOURCE_ID):
        source = StreamSource(sim, config.stream, publish,
                              total_packets=config.total_packets)
        source.start(delay=config.stream_start)

    # Churn.
    crash_times: Dict[int, float] = {}

    if config.churn is not None:
        # Churn is *replicated* under sharding: every shard draws the
        # same victims from its copy of the churn/detection streams and
        # crashes them locally, so membership state stays serial-exact on
        # every shard.  A crash-aware router (the shard router) is
        # additionally notified so the victim's owner can announce the
        # crash as a control row that peer shards verify against their
        # replica (see repro.net.shard).
        on_crash = getattr(net.router, "on_crash", None)

        def crash_node(victim: int) -> None:
            crash_times[victim] = sim.now
            net.crash(victim)
            nodes[victim].stop()
            if victim in samplers:
                samplers[victim].stop()
            if victim in detectors:
                detectors[victim].stop()
            if victim in probers:
                probers[victim].stop()
            if on_crash is not None:
                on_crash(victim, sim.now)

        config.churn.schedule(sim, directory, registry.stream("churn"),
                              crash_node, protect=[SOURCE_ID])

    return ScenarioBuild(config, sim, net, nodes, publish_times, capacities,
                         labels, crash_times, detectors=detectors,
                         samplers=samplers, attackers=attackers)


def run_scenario(config: ScenarioConfig,
                 until: Optional[float] = None) -> ExperimentResult:
    """Run one scenario to completion and collect its result.

    ``until`` overrides the horizon (rarely needed; tests use it).  With
    ``config.shards > 1`` the run is delegated to the sharded execution
    engine — same scenario, same metric summaries, partitioned across
    worker shards (see :mod:`repro.net.shard`).
    """
    if config.shards > 1:
        from repro.net.shard import run_sharded

        return run_sharded(config, until=until)
    build = build_scenario(config)
    build.sim.run(until=until if until is not None else config.end_time)
    return build.result()
