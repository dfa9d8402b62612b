"""The in-tree attack implementations.

Every attack here is *rational*: the adversary keeps consuming the
stream normally and deviates only in what it gives back — upload
bandwidth, forwarding work, or truthful protocol state.  Each class
registers itself in the attack catalog at import time (see
:mod:`repro.adversary.registry`) and exposes its attack-specific
counters through ``attack_stats()`` so impact metrics survive the
sharded harvest.

Node-role attacks subclass :class:`~repro.core.heap.HeapGossipNode` and
take the attack parameter as their eighth positional argument (after the
honest constructor signature); the sampler-role attack subclasses
:class:`~repro.membership.peer_sampling.PeerSamplingService`.

* ``underclaim`` / ``nonserve`` are the original freerider pair (the
  paper's §5 incentive weakness);
* ``spam`` floods proposals far beyond the fanout budget, congesting its
  own uplink and pulling requests toward a saturated server;
* ``withhold`` receives everything but selectively never proposes,
  silently starving the paths that run through it;
* ``poisoned-view`` advertises fabricated membership entries into Cyclon
  shuffle exchanges, biasing honest partial views toward the attacker
  coalition.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.adversary.registry import attack
from repro.core.config import GossipConfig
from repro.core.heap import HeapGossipNode
from repro.core.messages import Propose, Request
from repro.membership.peer_sampling import PeerSamplingService
from repro.membership.view import LocalView
from repro.net.network import Network
from repro.sim.engine import Simulator


@attack("underclaim",
        channel="capability aggregation (advertised b_p)",
        detection=("evades the answered/asked audit — behaviour is "
                   "self-consistent; only the contribution index "
                   "(served/consumed) betrays it, and that also flags "
                   "honest poverty"),
        default_param=0.1,
        param_doc="claim factor: advertised = param * true capability")
class UnderclaimingNode(HeapGossipNode):
    """Advertises ``claim_factor * capability`` to HEAP's aggregation.

    It exploits exactly the channel the paper worries about: HEAP assigns
    it a small fanout, it proposes rarely, gets pulled rarely, and its
    uplink stays idle — while its download is untouched.  Nothing about
    its *visible* behaviour is inconsistent: it behaves exactly like an
    honest poor node, which is what makes the attack attractive (and
    detection subtle).
    """

    __slots__ = ("claim_factor", "true_capability_bps")

    def __init__(self, sim: Simulator, net: Network, node_id: int,
                 view: LocalView, config: GossipConfig, rng: random.Random,
                 capability_bps: float, claim_factor: float = 0.1):
        if not 0.0 < claim_factor <= 1.0:
            raise ValueError(f"claim_factor must be in (0, 1], got {claim_factor!r}")
        self.claim_factor = claim_factor
        self.true_capability_bps = capability_bps
        super().__init__(sim, net, node_id, view, config, rng,
                         capability_bps * claim_factor)
        # The uplink itself keeps the true capacity (set by the runner);
        # only the *advertised* capability is a lie.

    def attack_stats(self) -> Dict[str, int]:
        return {}


@attack("nonserve",
        channel="serve phase (drops [Request]s)",
        detection=("caught directly: every requester observes the "
                   "answered/asked ratio first-hand and gossiped audit "
                   "reports converge to convictions"),
        default_param=0.2,
        param_doc="serve probability: answers param of received requests")
class NonServingNode(HeapGossipNode):
    """Honest everywhere except the serve phase."""

    __slots__ = ("serve_probability", "requests_dropped")

    def __init__(self, sim: Simulator, net: Network, node_id: int,
                 view: LocalView, config: GossipConfig, rng: random.Random,
                 capability_bps: float, serve_probability: float = 0.2):
        if not 0.0 <= serve_probability <= 1.0:
            raise ValueError(
                f"serve_probability must be in [0, 1], got {serve_probability!r}")
        super().__init__(sim, net, node_id, view, config, rng, capability_bps)
        self.serve_probability = serve_probability
        self.requests_dropped = 0

    def _on_request(self, src: int, request: Request) -> None:
        if self._rng.random() < self.serve_probability:
            super()._on_request(src, request)
        else:
            self.requests_dropped += 1

    def attack_stats(self) -> Dict[str, int]:
        return {"requests_dropped": self.requests_dropped}


@attack("spam",
        channel="propose phase (floods beyond the fanout budget)",
        detection=("visible as anomalous propose volume and a saturated "
                   "uplink; the ratio audit flags it indirectly once its "
                   "congested serves start timing out"),
        default_param=0.25,
        param_doc="flood fraction: proposes to param of the view per round")
class SpammingNode(HeapGossipNode):
    """Proposes to a fixed fraction of its entire view every round.

    The adaptive fanout exists to keep propose volume inside the uplink
    budget; the spammer ignores it and floods, so receivers across the
    overlay request from a node whose uplink is saturated by its own
    propose traffic — serves queue behind spam, retransmission timers
    fire, and lag rises beyond the attacker's own neighborhood.
    """

    __slots__ = ("flood_fraction", "spam_proposes")

    def __init__(self, sim: Simulator, net: Network, node_id: int,
                 view: LocalView, config: GossipConfig, rng: random.Random,
                 capability_bps: float, flood_fraction: float = 0.25):
        if not 0.0 < flood_fraction <= 1.0:
            raise ValueError(
                f"flood_fraction must be in (0, 1], got {flood_fraction!r}")
        super().__init__(sim, net, node_id, view, config, rng, capability_bps)
        self.flood_fraction = flood_fraction
        self.spam_proposes = 0

    def _gossip(self, ids: List[int]) -> None:
        fanout = self.get_fanout()
        flood = max(fanout, round(self.flood_fraction * len(self.view)))
        if flood <= 0:
            return
        partners = self.selector.select(self.view, flood)
        if not partners:
            return
        self._net.send_many(self.node_id, partners, Propose(ids))
        self.spam_proposes += max(0, len(partners) - fanout)

    def attack_stats(self) -> Dict[str, int]:
        return {"spam_proposes": self.spam_proposes}


@attack("withhold",
        channel="propose phase (selective silence)",
        detection=("like underclaiming, the ratio audit is blind — it "
                   "answers what little it is asked; its signature is a "
                   "propose volume far below its advertised capability"),
        default_param=0.1,
        param_doc="forward probability: proposes param of delivered ids")
class WithholdingNode(HeapGossipNode):
    """Receives everything, forwards almost nothing.

    Each freshly delivered id is proposed onward with probability
    ``forward_probability`` and silently withheld otherwise — the ids
    are still *delivered* locally (the attacker watches the stream), so
    unlike a crashed node it keeps requesting, keeps acking audits, and
    keeps advertising its true capability.  HEAP consequently assigns it
    a high fanout it never uses: every dissemination path through it
    goes dark.
    """

    __slots__ = ("forward_probability", "ids_withheld")

    def __init__(self, sim: Simulator, net: Network, node_id: int,
                 view: LocalView, config: GossipConfig, rng: random.Random,
                 capability_bps: float, forward_probability: float = 0.1):
        if not 0.0 < forward_probability <= 1.0:
            raise ValueError(f"forward_probability must be in (0, 1], "
                             f"got {forward_probability!r}")
        super().__init__(sim, net, node_id, view, config, rng, capability_bps)
        self.forward_probability = forward_probability
        self.ids_withheld = 0

    def _on_gossip_tick(self) -> None:
        if not self._to_propose:
            return
        ids = self._to_propose
        self._to_propose = []  # infect and die, even for withheld ids
        kept = [packet_id for packet_id in ids
                if self._rng.random() < self.forward_probability]
        self.ids_withheld += len(ids) - len(kept)
        if kept:
            self._gossip(kept)

    def attack_stats(self) -> Dict[str, int]:
        return {"ids_withheld": self.ids_withheld}


@attack("poisoned-view", role="sampler",
        channel="peer sampling (fabricated Cyclon shuffle entries)",
        detection=("invisible to the freerider audit (the gossip node is "
                   "honest); shows up as view-diversity loss — honest "
                   "partial views drift toward the attacker coalition"),
        default_param=0.5,
        param_doc="poison fraction: fabricated share of each shuffle payload",
        requires_membership="cyclon")
class PoisonedSamplingService(PeerSamplingService):
    """Poisons every Cyclon exchange it takes part in.

    A ``poison_fraction`` share of each outgoing shuffle payload (request
    and reply alike) is replaced by fabricated age-0 entries pointing at
    the attacker coalition — fresh-looking, false membership state.
    Honest views fill with coalition entries, crowding out genuine
    peers: sampling uniformity degrades and dissemination concentrates
    on nodes the adversary controls.
    """

    __slots__ = ("poison_fraction", "accomplices", "entries_poisoned")

    def __init__(self, sim: Simulator, net: Network, node_id: int,
                 rng: random.Random, view_size: int = 20,
                 shuffle_length: int = 8, period: float = 1.0,
                 poison_fraction: float = 0.5,
                 accomplices: Tuple[int, ...] = ()):
        if not 0.0 < poison_fraction <= 1.0:
            raise ValueError(f"poison_fraction must be in (0, 1], "
                             f"got {poison_fraction!r}")
        super().__init__(sim, net, node_id, rng, view_size=view_size,
                         shuffle_length=shuffle_length, period=period)
        self.poison_fraction = poison_fraction
        self.accomplices = tuple(a for a in accomplices if a != node_id)
        self.entries_poisoned = 0

    def _outgoing(self, entries: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
        if not entries:
            return entries
        fabricate = max(1, round(self.poison_fraction * len(entries)))
        fabricate = min(fabricate, len(entries))
        pool = (self.node_id,) + self.accomplices
        kept = entries[:len(entries) - fabricate]
        fabricated = [(pool[self._rng.randrange(len(pool))], 0)
                      for _ in range(fabricate)]
        self.entries_poisoned += fabricate
        return kept + fabricated

    def attack_stats(self) -> Dict[str, int]:
        return {"entries_poisoned": self.entries_poisoned}
