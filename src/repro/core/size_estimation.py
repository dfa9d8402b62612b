"""Gossip-based system-size estimation.

The paper sets the base fanout to ``ln(n) + c`` assuming n is known:
"a similar protocol can be used to continuously approximate the size of
the system [13], but for simplicity we consider here that the initial
fanout is computed knowing the system size in advance".  This module
builds that protocol — push-pull averaging à la Jelasity/Montresor/
Babaoglu (TOCS 2005) — so HEAP can run without global knowledge:

one node (the source) starts with value 1, everybody else with 0; the
gossip exchange drives every node's value towards the average ``1/n``,
so ``n ≈ 1 / value``.  Restarting in epochs keeps the estimate tracking
churn: each epoch lasts a fixed number of rounds, after which nodes
adopt the converged estimate and start a new epoch.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from repro.membership.view import LocalView
from repro.net.message import register_kind
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer

#: Bytes of an averaging exchange payload (epoch id + value + flags).
_WIRE_BYTES = 24


class SizeEstimateMessage:
    """Push half of a push-pull averaging exchange."""

    kind = "size-push"
    kind_id = register_kind("size-push")
    __slots__ = ("epoch", "value")

    def __init__(self, epoch: int, value: float):
        self.epoch = epoch
        self.value = value

    def wire_size(self) -> int:
        return _WIRE_BYTES


class SizeEstimateReply:
    """Pull half: the responder's value, for symmetric averaging."""

    kind = "size-pull"
    kind_id = register_kind("size-pull")
    __slots__ = ("epoch", "value")

    def __init__(self, epoch: int, value: float):
        self.epoch = epoch
        self.value = value

    def wire_size(self) -> int:
        return _WIRE_BYTES


class SizeEstimator:
    """One node's push-pull averaging agent.

    ``is_leader`` marks the single node seeding the epoch with value 1
    (the stream source in our experiments).  ``rounds_per_epoch`` trades
    convergence (averaging contracts variance by ~half per round) against
    tracking lag after churn; 30 rounds at a 200 ms period re-estimates
    every 6 s.
    """

    __slots__ = ("_sim", "_net", "node_id", "_view", "_rng", "is_leader",
                 "rounds_per_epoch", "epoch", "_round_in_epoch", "_value",
                 "_settled_estimate", "_timer", "_dispatch")

    def __init__(self, sim: Simulator, net: Network, node_id: int,
                 view: LocalView, rng: random.Random, is_leader: bool = False,
                 period: float = 0.2, rounds_per_epoch: int = 30):
        if rounds_per_epoch < 1:
            raise ValueError("rounds_per_epoch must be >= 1")
        self._sim = sim
        self._net = net
        self.node_id = node_id
        self._view = view
        self._rng = rng
        self.is_leader = is_leader
        self.rounds_per_epoch = rounds_per_epoch
        self.epoch = 0
        self._round_in_epoch = 0
        self._value = 1.0 if is_leader else 0.0
        #: Estimate carried over from the previously completed epoch.
        self._settled_estimate: Optional[float] = None
        self._timer = PeriodicTimer(sim, period, self._tick)
        self._dispatch = {
            SizeEstimateMessage.kind_id: self._handle_push,
            SizeEstimateReply.kind_id: self._handle_pull,
        }

    # ------------------------------------------------------------------
    def start(self, phase: Optional[float] = None) -> None:
        self._timer.start(phase if phase is not None
                          else self._rng.uniform(0, self._timer.period))

    def stop(self) -> None:
        self._timer.stop()

    # ------------------------------------------------------------------
    def estimate(self) -> Optional[float]:
        """Current size estimate, or None before the first epoch settles.

        Mid-epoch, the previous epoch's settled estimate is reported —
        the in-flight value is still converging and can be wildly off.
        """
        return self._settled_estimate

    def fanout_for_estimate(self, c: float = 1.4, fallback: float = 7.0) -> float:
        """``ln(n̂) + c`` from the current estimate (the paper's rule)."""
        estimate = self.estimate()
        if estimate is None or estimate < 2:
            return fallback
        return math.log(estimate) + c

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self._round_in_epoch += 1
        if self._round_in_epoch > self.rounds_per_epoch:
            self._settle_epoch()
        partner_list = self._view.sample(1, self._rng)
        if not partner_list:
            return
        self._net.send_many(self.node_id, partner_list,
                            SizeEstimateMessage(self.epoch, self._value))

    def _settle_epoch(self) -> None:
        if self._value > 0:
            self._settled_estimate = 1.0 / self._value
        self.epoch += 1
        self._round_in_epoch = 0
        self._value = 1.0 if self.is_leader else 0.0

    # ------------------------------------------------------------------
    def dispatch_table(self):
        """Kind-id dispatch (captured by ``Network.attach``)."""
        return self._dispatch

    def on_message(self, envelope) -> None:
        handler = self._dispatch.get(envelope.payload.kind_id)
        if handler is not None:
            handler(envelope)

    def _handle_push(self, envelope) -> None:
        self._on_push(envelope.src, envelope.payload)

    def _handle_pull(self, envelope) -> None:
        self._on_pull(envelope.payload)

    def _on_push(self, src: int, message: SizeEstimateMessage) -> None:
        if message.epoch != self.epoch:
            # An epoch-ahead peer pulls us forward; a lagging peer is ignored
            # (it will catch up from others).
            if message.epoch > self.epoch:
                self.epoch = message.epoch
                self._round_in_epoch = 0
                self._value = 1.0 if self.is_leader else 0.0
            else:
                return
        self._net.send(self.node_id, src,
                       SizeEstimateReply(self.epoch, self._value))
        self._average_with(message.value)

    def _on_pull(self, reply: SizeEstimateReply) -> None:
        if reply.epoch == self.epoch:
            self._average_with(reply.value)

    def _average_with(self, other_value: float) -> None:
        self._value = (self._value + other_value) / 2.0
