"""HEAP: HEterogeneity-Aware gossip Protocol (Algorithm 2).

Differences from standard gossip, exactly as in the paper:

* a :class:`~repro.core.aggregation.CapabilityAggregator` continuously
  estimates the system-average upload capability b — it and the fanout
  policy read the node's capability through one shared
  ``partial(getattr, node, "capability_bps")``, and aggregation
  deliveries go from this endpoint's dispatch table straight to the
  aggregator;
* ``getFanout()`` returns ``f * b_p / b`` (Equation 1), bounded below by
  ``min_fanout`` and optionally capped, quantized per round;
* retransmission timers (shared machinery, also enabled in the baseline).

Everything else — three phases, infect-and-die, uniform peer selection —
is inherited unchanged from :class:`~repro.core.base.GossipNode`, which
is the point: HEAP "preserves the simplicity and proactive nature of
traditional gossip".
"""

from __future__ import annotations

import random
from functools import partial
from typing import Optional

from repro.core.aggregation import AggregationMessage, CapabilityAggregator
from repro.core.base import GossipNode
from repro.core.config import GossipConfig
from repro.core.fanout import AdaptiveFanout
from repro.membership.view import LocalView
from repro.net.network import Network
from repro.sim.engine import Simulator


class HeapGossipNode(GossipNode):
    """A HEAP participant: gossip node + aggregation + adaptive fanout."""

    __slots__ = ("aggregator",)

    def __init__(self, sim: Simulator, net: Network, node_id: int,
                 view: LocalView, config: GossipConfig, rng: random.Random,
                 capability_bps: float):
        super().__init__(sim, net, node_id, view, config, rng, capability_bps)
        # Read per round by both consumers; a C-level callable, no frame.
        capability = partial(getattr, self, "capability_bps")
        self.aggregator = CapabilityAggregator(
            sim, net, node_id,
            capability=capability,
            view=view,
            rng=rng,
            period=config.aggregation_period,
            fresh_count=config.aggregation_fresh_count,
            fanout=config.aggregation_fanout,
            sample_ttl=config.aggregation_sample_ttl,
        )
        self._policy = AdaptiveFanout(
            base_fanout=config.fanout,
            capability=capability,
            average_estimate=self.aggregator.average_estimate,
            min_fanout=config.min_fanout,
            max_fanout=config.max_fanout,
            mode=config.fanout_rounding,
            rng=rng,
        )
        # The aggregation protocol rides this endpoint's dispatch table,
        # its deliveries handed straight to the aggregator.
        self.register_handler(AggregationMessage.kind_id,
                              self.aggregator.on_envelope)

    # ------------------------------------------------------------------
    def start(self, phase: Optional[float] = None) -> None:
        super().start(phase)
        self.aggregator.start()

    def stop(self) -> None:
        super().stop()
        self.aggregator.stop()

    # ------------------------------------------------------------------
    def get_fanout(self) -> int:
        return self._policy.partners_this_round()

    def current_fanout(self) -> float:
        return self._policy.current()

    def average_capability_estimate(self) -> float:
        """The aggregation protocol's current estimate of b (diagnostics)."""
        return self.aggregator.average_estimate()
