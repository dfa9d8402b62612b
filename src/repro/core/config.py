"""Protocol configuration.

Defaults reproduce the paper's experimental setup (Section 3.1):
fanout 7, gossip period 200 ms, aggregation every 200 ms exchanging the
10 freshest capability samples, UDP with retransmission.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class GossipConfig:
    """All knobs of the dissemination and aggregation protocols."""

    #: Average fanout f.  The paper sets 7 for ~270 nodes (ln 270 ~= 5.6 + c).
    fanout: float = 7.0
    #: Gossip (propose) period in seconds.
    gossip_period: float = 0.2
    #: Randomize each node's first tick within one period (desynchronized
    #: rounds, as on a real testbed).
    randomize_phase: bool = True

    # -- retransmission (Algorithm 2, applied to both protocols) --------
    #: Enable the request-retransmission timer.
    retransmission: bool = True
    #: Seconds to wait for a [Serve] before re-requesting.  Must sit well
    #: above typical congestion-induced queueing delay: re-requesting a
    #: merely *delayed* serve duplicates payload traffic and amplifies
    #: congestion (see the retransmission ablation bench).
    retransmission_period: float = 2.0
    #: Number of re-requests before giving up on a proposer (after which
    #: the ids become requestable from other proposers again).
    retransmission_retries: int = 2

    # -- HEAP fanout adaptation -----------------------------------------
    #: Lower bound on an adapted fanout ("the source has at least fanout 1").
    min_fanout: float = 1.0
    #: Optional upper bound (superpeer-risk ablation); 0 disables the cap.
    max_fanout: float = 0.0
    #: 'stochastic' preserves the configured average fanout exactly by
    #: randomizing between floor and ceil; 'round' uses plain rounding.
    fanout_rounding: str = "stochastic"

    # -- capability aggregation (Algorithm 2) ----------------------------
    #: Aggregation gossip period in seconds.
    aggregation_period: float = 0.2
    #: Number of freshest (node, capability) samples sent per message.
    aggregation_fresh_count: int = 10
    #: Samples older than this many seconds are dropped from the local
    #: table (keeps the estimate tracking capability changes and churn).
    aggregation_sample_ttl: float = 10.0
    #: Fanout of the aggregation gossip itself.  1 matches the paper's
    #: reported cost ("around 1 KB/s ... completely marginal"); the
    #: aggregation ablation bench explores larger values.
    aggregation_fanout: int = 1

    def validate(self) -> None:
        if self.fanout < 1:
            raise ValueError("fanout must be >= 1")
        if self.gossip_period <= 0:
            raise ValueError("gossip period must be positive")
        if self.retransmission_period <= 0:
            raise ValueError("retransmission period must be positive")
        if self.retransmission_retries < 0:
            raise ValueError("retries must be >= 0")
        if self.min_fanout < 0:
            raise ValueError("min_fanout must be >= 0")
        if self.max_fanout < 0:
            raise ValueError("max_fanout must be >= 0 (0 disables)")
        if self.max_fanout and self.max_fanout < self.min_fanout:
            raise ValueError("max_fanout below min_fanout")
        if self.fanout_rounding not in ("stochastic", "round"):
            raise ValueError(f"unknown rounding mode {self.fanout_rounding!r}")
        if self.aggregation_period <= 0:
            raise ValueError("aggregation period must be positive")
        if self.aggregation_fresh_count < 1:
            raise ValueError("aggregation_fresh_count must be >= 1")
        if self.aggregation_sample_ttl <= 0:
            raise ValueError("aggregation_sample_ttl must be positive")
        if self.aggregation_fanout < 1:
            raise ValueError("aggregation_fanout must be >= 1")
