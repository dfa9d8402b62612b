"""Network substrate: a simulated best-effort datagram fabric.

Models the parts of the paper's PlanetLab/UDP testbed that the evaluation
depends on:

* per-node **uplink serialization queues** — the application-level rate
  limiter of the paper ("packets which are about to cross the bandwidth
  limit are queued"), the mechanism behind congestion at poor nodes;
* end-to-end **latency models** (constant, pairwise);
* **loss models** (none, Bernoulli) standing in for UDP drops on the
  real Internet;
* a :class:`~repro.net.network.Network` fabric that wires endpoints
  together, applies the three models in order (queue -> loss -> latency)
  and records traffic statistics per message kind (per-node upload is
  each uplink queue's own count);
* pluggable **delivery routers** (:mod:`repro.net.router`): the default
  in-process router (one heap entry per arrival), and the
  sharded router (:mod:`repro.net.shard`) that partitions one large
  scenario across worker processes.
"""

from repro.net.bandwidth import UplinkQueue
from repro.net.latency import (
    ConstantLatency,
    LatencyModel,
    PairwiseLatency,
    PerPairLatency,
)
from repro.net.loss import BernoulliLoss, LossModel, NoLoss
from repro.net.message import Envelope, Payload
from repro.net.network import Endpoint, Network
from repro.net.router import InprocRouter, Router
from repro.net.stats import NetworkStats

__all__ = [
    "BernoulliLoss",
    "ConstantLatency",
    "Endpoint",
    "Envelope",
    "InprocRouter",
    "LatencyModel",
    "LossModel",
    "Network",
    "NetworkStats",
    "NoLoss",
    "PairwiseLatency",
    "PerPairLatency",
    "Payload",
    "Router",
    "UplinkQueue",
]
