"""Gossip-based freerider auditing.

A decentralized, statistical audit in the spirit of the tracking
protocol the paper announces in §5: every node counts, per peer, how
many packets it *asked* that peer for and how many the peer actually
*served*; it gossips these local audit records; every node accumulates
the gossiped records into global per-peer scores.  A peer whose
aggregate answered/asked ratio stays low across many independent
observers is convicted.

What this catches — and what it cannot:

* **Non-servers** (drop requests) are caught directly: their ratio
  converges to their serve probability while honest nodes, rich or
  poor, eventually answer what they are asked (the three-phase protocol
  only requests what was proposed, and proposals follow capability).
* **Under-claimers** (lie to the aggregation protocol) are *consistent*:
  they are asked little and answer what they are asked, so their ratio
  looks honest.  Their signature is a low contribution *volume* relative
  to the stream they consume — indistinguishable, without bandwidth
  proofs, from an honest poor node.  The detector therefore also exposes
  a contribution index (served/consumed) that callers may threshold,
  with the explicit caveat that it punishes honest poverty alike; the
  benches demonstrate both sides.  This matches the paper's framing of
  freerider tracking as an open problem rather than a solved one.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple

from repro.membership.view import LocalView
from repro.net.message import register_kind
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer

#: Bytes per audit entry (peer id, asked, answered).
_ENTRY_BYTES = 16
#: Fixed header bytes of an audit datagram payload.
_HEADER_BYTES = 8


class AuditReport:
    """[Audit] — a batch of (peer, asked, answered) observations."""

    kind = "audit"
    kind_id = register_kind("audit")
    __slots__ = ("reporter", "entries")

    def __init__(self, reporter: int, entries: List[Tuple[int, int, int]]):
        self.reporter = reporter
        self.entries = entries

    def wire_size(self) -> int:
        return _HEADER_BYTES + _ENTRY_BYTES * len(self.entries)


class PeerScore:
    """Aggregated audit state for one audited peer.

    Holds the latest totals from up to ``max_reporters`` distinct
    reporters (a reporter's newer report replaces its older one, since
    audit counters are cumulative).  The cap bounds memory at
    O(peers x max_reporters) per node.
    """

    __slots__ = ("_by_reporter", "max_reporters")

    def __init__(self, max_reporters: int = 8) -> None:
        self._by_reporter: Dict[int, Tuple[int, int]] = {}
        self.max_reporters = max_reporters

    def update(self, reporter: int, asked: int, answered: int) -> None:
        if (reporter not in self._by_reporter
                and len(self._by_reporter) >= self.max_reporters):
            return
        self._by_reporter[reporter] = (asked, answered)

    @property
    def asked(self) -> int:
        return sum(asked for asked, _ in self._by_reporter.values())

    @property
    def answered(self) -> int:
        return sum(answered for _, answered in self._by_reporter.values())

    @property
    def reporters(self) -> Set[int]:
        return set(self._by_reporter)

    def ratio(self) -> float:
        asked = self.asked
        if asked == 0:
            return 1.0
        return self.answered / asked

    def __repr__(self) -> str:  # pragma: no cover
        return (f"PeerScore(asked={self.asked}, answered={self.answered}, "
                f"reporters={len(self._by_reporter)})")


class FreeriderDetector:
    """One node's auditing agent.

    Local observations come in through :meth:`record_request` /
    :meth:`record_serve` (wired to the gossip node's hooks); the agent
    periodically gossips its most-sampled observations and merges the
    reports it receives into a global score table.
    """

    __slots__ = ("_sim", "_net", "node_id", "_view", "_rng", "fanout",
                 "report_size", "_local", "_global", "_timer", "_dispatch")

    def __init__(self, sim: Simulator, net: Network, node_id: int,
                 view: LocalView, rng: random.Random, period: float = 1.0,
                 fanout: int = 2, report_size: int = 10):
        if fanout < 1 or report_size < 1:
            raise ValueError("fanout and report_size must be >= 1")
        self._sim = sim
        self._net = net
        self.node_id = node_id
        self._view = view
        self._rng = rng
        self.fanout = fanout
        self.report_size = report_size
        #: Local first-hand observations: peer -> [asked, answered].
        self._local: Dict[int, List[int]] = {}
        #: Global table merged from everyone's gossiped reports.
        self._global: Dict[int, PeerScore] = {}
        self._timer = PeriodicTimer(sim, period, self._gossip)
        self._dispatch = {AuditReport.kind_id: self.on_message}

    # ------------------------------------------------------------------
    def start(self, phase: Optional[float] = None) -> None:
        self._timer.start(phase if phase is not None
                          else self._rng.uniform(0, self._timer.period))

    def stop(self) -> None:
        self._timer.stop()

    # ------------------------------------------------------------------
    # first-hand observation hooks
    # ------------------------------------------------------------------
    def record_request(self, peer: int, count: int) -> None:
        self._local.setdefault(peer, [0, 0])[0] += count

    def record_serve(self, peer: int, count: int) -> None:
        entry = self._local.setdefault(peer, [0, 0])
        entry[1] += count
        # Served more than asked can only happen through duplicate serves
        # (retransmission races); clamp so ratios stay in [0, 1].
        if entry[1] > entry[0]:
            entry[1] = entry[0]

    # ------------------------------------------------------------------
    # audit gossip
    # ------------------------------------------------------------------
    def _gossip(self) -> None:
        if not self._local:
            return
        partners = self._view.sample(self.fanout, self._rng)
        if not partners:
            return
        # Report the peers we have the most evidence about.
        ranked = sorted(self._local.items(), key=lambda item: -item[1][0])
        entries = [(peer, asked, answered)
                   for peer, (asked, answered) in ranked[:self.report_size]]
        report = AuditReport(self.node_id, entries)
        self._net.send_many(self.node_id, partners, report)
        # Merge our own evidence as well (we are a reporter too).
        self._merge(self.node_id, entries)

    def dispatch_table(self):
        """Kind-id dispatch: merged into the hosting node's endpoint."""
        return self._dispatch

    def on_message(self, envelope) -> None:
        payload = envelope.payload
        if payload.kind_id != AuditReport.kind_id:
            return
        self._merge(payload.reporter, payload.entries)

    def _merge(self, reporter: int, entries: List[Tuple[int, int, int]]) -> None:
        for peer, asked, answered in entries:
            if peer == self.node_id:
                continue
            score = self._global.get(peer)
            if score is None:
                score = PeerScore()
                self._global[peer] = score
            score.update(reporter, asked, answered)

    # ------------------------------------------------------------------
    # harvest
    # ------------------------------------------------------------------
    def snapshot(self) -> "FrozenDetector":
        """A picklable copy of this detector's global score table, which
        answers the verdict queries.

        The live detector holds simulator/network/timer references;
        every run harvests snapshots instead (see
        :meth:`repro.experiments.runner.ScenarioBuild.harvest`), so a
        result crosses process boundaries and outlives its build.
        """
        return FrozenDetector(self.node_id, dict(self._global))


class FrozenDetector:
    """Verdict-capable, picklable snapshot of a :class:`FreeriderDetector`.

    Carries the global score table (:class:`PeerScore` is plain slotted
    state) and answers the post-run analysis surface — :meth:`suspects` /
    :meth:`score_of` — without the simulation wiring.
    """

    __slots__ = ("node_id", "_global")

    def __init__(self, node_id: int, global_scores: Dict[int, PeerScore]):
        self.node_id = node_id
        self._global = global_scores

    def score_of(self, peer: int) -> Optional[PeerScore]:
        return self._global.get(peer)

    def suspects(self, ratio_threshold: float = 0.5,
                 min_samples: int = 30,
                 min_reporters: int = 3) -> Set[int]:
        """Peers this node would convict of request-dropping."""
        flagged = set()
        for peer, score in self._global.items():
            if (score.asked >= min_samples
                    and len(score.reporters) >= min_reporters
                    and score.ratio() < ratio_threshold):
                flagged.add(peer)
        return flagged
