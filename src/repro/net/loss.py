"""Datagram loss models, standing in for UDP drops on the Internet.

The paper copes with loss through retransmission timers (Algorithm 2) and
observes that "when running simulations without message loss, 100% of the
nodes received the full stream" — our :class:`NoLoss` default reproduces
that; lossy scenarios use :class:`BernoulliLoss`.  :class:`PerPairLoss`
is the order-independent Bernoulli variant sharded execution requires
(``ScenarioConfig.loss_rng="per-pair"``), mirroring
:class:`~repro.net.latency.PerPairLatency`.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict

from repro.sim.rng import derive_seed, link_draw


class LossModel(ABC):
    """Decides, per datagram, whether the network drops it."""

    __slots__ = ()

    #: Hot-path hint: when False the network skips is_lost() entirely.
    #: Models that consume RNG draws must keep this True even at rate 0,
    #: so a zero-rate model stays stream-compatible with a lossy one.
    active = True

    @abstractmethod
    def is_lost(self, src: int, dst: int) -> bool:
        """Return True if this datagram should be silently dropped."""


class NoLoss(LossModel):
    """Perfect delivery."""

    __slots__ = ()

    active = False

    def is_lost(self, src: int, dst: int) -> bool:
        return False


class BernoulliLoss(LossModel):
    """Each datagram is dropped independently with probability ``rate``."""

    __slots__ = ("_rng", "rate")

    def __init__(self, rng: random.Random, rate: float):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {rate!r}")
        self._rng = rng
        self.rate = rate

    def is_lost(self, src: int, dst: int) -> bool:
        return self._rng.random() < self.rate


class PerPairLoss(LossModel):
    """Bernoulli loss with *order-independent* random draws.

    Statistically identical to :class:`BernoulliLoss` — every datagram is
    dropped independently with probability ``rate`` — but the k-th
    datagram on the *directed* link ``src -> dst`` decides its trial by
    the k-th draw of that link's own counter-based stream under the
    ``(seed, "loss")`` key, never from a stream shared across links.  A
    link costs one 64-bit ``int`` of state, keyed by its integer link id
    ``(src << 32) + dst``, and a trial is one
    :func:`repro.sim.rng.link_draw` call — about a microsecond, a link's
    first datagram (which seeds the stream) included.

    :class:`BernoulliLoss` consumes one shared stream in global send
    order, which couples every link's drop decisions to the total order
    of sends across the whole system.  Here a link's decisions are a pure
    function of the model seed, the link identity, and the sender's own
    per-destination send sequence — so a run partitioned across shards
    (where global order is not reproducible) drops exactly the same
    datagrams as the serial run.  This is the loss mode sharded execution
    requires (``ScenarioConfig.loss_rng == "per-pair"``).
    """

    __slots__ = ("rate", "_key", "_states")

    def __init__(self, seed: int, rate: float):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {rate!r}")
        self.rate = rate
        self._key = derive_seed(seed, "loss")
        #: Directed link id -> trial stream state, created on first send.
        self._states: Dict[int, int] = {}

    def is_lost(self, src: int, dst: int) -> bool:
        link = (src << 32) + dst
        return link_draw(self._states, self._key, link) < self.rate
