"""End-to-end latency models.

These stand in for Internet propagation delay between PlanetLab sites.
The dissemination results depend on the *relative order* of propose
arrivals (fast senders win requests), so any model with realistic spread
reproduces the paper's qualitative behaviour; the default experiment
setup uses :class:`PairwiseLatency`, which assigns every unordered pair
a stable base latency plus per-message jitter — approximating a
geographic topology without needing coordinates.

Both pairwise models key their memoised bases by the integer pair id
``(min << 32) + max``.  :class:`PairwiseLatency` draws a new pair's base
from its shared stream with ``random.lognormvariate``'s
Kinderman–Monahan loop written out inline (``random.NV_MAGICCONST``, the
same two ``random()`` calls per try, ``exp(mu + z * sigma)``): the same
value and the same stream state, without ``lognormvariate``'s and
``normalvariate``'s Python frames on every new pair.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from random import NV_MAGICCONST
from typing import Dict

from repro.sim.rng import derive_seed, link_draw, stream_head


class LatencyModel(ABC):
    """Samples one-way network delay (seconds) for a (src, dst) pair."""

    __slots__ = ()

    @abstractmethod
    def sample(self, src: int, dst: int) -> float:
        """Return the one-way delay for one message from src to dst."""


class ConstantLatency(LatencyModel):
    """Every message takes exactly ``delay`` seconds.  Useful in tests."""

    __slots__ = ("delay",)

    def __init__(self, delay: float = 0.05):
        if delay < 0:
            raise ValueError(f"negative latency {delay!r}")
        self.delay = delay

    def sample(self, src: int, dst: int) -> float:
        return self.delay


def _check_pairwise(median_base: float, jitter: float) -> None:
    if median_base <= 0:
        raise ValueError(f"median must be positive, got {median_base!r}")
    if jitter < 0:
        raise ValueError(f"negative jitter {jitter!r}")


class PairwiseLatency(LatencyModel):
    """Stable per-pair base latency plus per-message jitter.

    Each unordered pair {a, b} gets a base delay drawn once from a
    lognormal distribution (so some pairs are 'far apart', some close),
    and each message adds uniform jitter.  Bases are memoized lazily so
    the model works for any node-id universe without pre-sizing a matrix.
    """

    __slots__ = ("_rng", "median_base", "sigma", "jitter", "floor", "_mu",
                 "_bases")

    def __init__(self, rng: random.Random, median_base: float = 0.05,
                 sigma: float = 0.6, jitter: float = 0.01, floor: float = 0.002):
        _check_pairwise(median_base, jitter)
        self._rng = rng
        self.median_base = median_base
        self.sigma = sigma
        self.jitter = jitter
        self.floor = floor
        self._mu = math.log(median_base)
        #: Pair id ``(min << 32) + max`` -> memoised base delay.
        self._bases: Dict[int, float] = {}

    def _draw_base(self, pair: int) -> float:
        random = self._rng.random
        while True:
            u1 = random()
            u2 = 1.0 - random()
            z = NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -math.log(u2):
                break
        value = max(self.floor, math.exp(self._mu + z * self.sigma))
        self._bases[pair] = value
        return value

    def base(self, src: int, dst: int) -> float:
        """The stable base latency for the unordered pair {src, dst}."""
        pair = (src << 32) + dst if src <= dst else (dst << 32) + src
        value = self._bases.get(pair)
        return self._draw_base(pair) if value is None else value

    def sample(self, src: int, dst: int) -> float:
        # Inlined base() lookup, base draw and jitter draw: this runs once
        # per datagram.  ``jitter * random()`` is bit-identical to
        # ``uniform(0, jitter)`` and consumes the same single draw, and
        # the loop is ``_draw_base``'s, so the RNG stream (and therefore
        # every seeded result) is unchanged.
        random = self._rng.random
        jitter = self.jitter * random() if self.jitter > 0 else 0.0
        pair = (src << 32) + dst if src <= dst else (dst << 32) + src
        base = self._bases.get(pair)
        if base is None:
            while True:
                u1 = random()
                u2 = 1.0 - random()
                z = NV_MAGICCONST * (u1 - 0.5) / u2
                if z * z / 4.0 <= -math.log(u2):
                    break
            base = max(self.floor, math.exp(self._mu + z * self.sigma))
            self._bases[pair] = base
        return base + jitter


class PerPairLatency(LatencyModel):
    """Pairwise latency with *order-independent* random draws.

    Statistically the same shape as :class:`PairwiseLatency` — a stable
    lognormal base per unordered pair plus uniform per-message jitter —
    but every random value comes from a counter-based link stream
    (:mod:`repro.sim.rng`) that belongs to one link and is a pure
    function of the model seed and the link identity.  Links are named by
    their integer id ``(src << 32) + dst``:

    * the base delay of pair ``{a, b}``, ``a <= b``, is the first two
      draws of link ``(a << 32) + b``'s stream under the ``"base"`` key
      (:func:`~repro.sim.rng.stream_head`), turned into a normal deviate
      by Box–Muller (rejection-free, so always exactly two draws) and
      memoised under that id;
    * the k-th message on the *directed* link ``src -> dst`` takes its
      jitter from the k-th draw of that link's stream under the
      ``"jitter"`` key (:func:`~repro.sim.rng.link_draw`).

    A stream's state is one 64-bit ``int`` in a dict keyed by an ``int``
    (under 200 bytes a link, the memoised base included) and every draw
    is one call: about a microsecond on a known link, two on a link's
    first send, which also seeds the stream and usually draws the pair's
    base.  A 1000-node run opens a new link on almost every send, so that
    first-send cost is what the model costs there.

    :class:`PairwiseLatency` consumes one shared stream in global send
    order, which couples every node's arrivals to the total order of
    events across the whole system.  Here draws depend only on each
    sender's own per-destination send sequence, so a run partitioned
    across shards (where global order is not reproducible) samples
    exactly the same delays as the serial run.  This is the latency mode
    sharded execution requires (``ScenarioConfig.latency_rng ==
    "per-pair"``).
    """

    __slots__ = ("median_base", "sigma", "jitter", "floor", "_mu", "_bases",
                 "_base_key", "_jitter_key", "_jitter_states")

    def __init__(self, seed: int, median_base: float = 0.05,
                 sigma: float = 0.6, jitter: float = 0.01, floor: float = 0.002):
        _check_pairwise(median_base, jitter)
        self.median_base = median_base
        self.sigma = sigma
        self.jitter = jitter
        self.floor = floor
        self._mu = math.log(median_base)
        #: Pair id ``(min << 32) + max`` -> memoised base delay.
        self._bases: Dict[int, float] = {}
        self._base_key = derive_seed(seed, "base")
        self._jitter_key = derive_seed(seed, "jitter")
        #: Directed link id -> jitter stream state, created on first send.
        self._jitter_states: Dict[int, int] = {}

    def _draw_base(self, pair: int) -> float:
        u1, u2 = stream_head(self._base_key, pair)
        # Box-Muller; 1 - u1 is in (0, 1], so the log is finite.
        normal = (math.sqrt(-2.0 * math.log(1.0 - u1))
                  * math.cos(2.0 * math.pi * u2))
        value = max(self.floor, math.exp(self._mu + self.sigma * normal))
        self._bases[pair] = value
        return value

    def base(self, src: int, dst: int) -> float:
        """The stable base latency for the unordered pair {src, dst}."""
        pair = (src << 32) + dst if src <= dst else (dst << 32) + src
        value = self._bases.get(pair)
        return self._draw_base(pair) if value is None else value

    def sample(self, src: int, dst: int) -> float:
        # Runs once per datagram, mostly on a link's first use at 1k
        # nodes: base() is inlined, and an src <= dst link is its own
        # pair id.
        link = (src << 32) + dst
        pair = link if src <= dst else (dst << 32) + src
        base = self._bases.get(pair)
        if base is None:
            base = self._draw_base(pair)
        if self.jitter <= 0:
            return base
        return base + self.jitter * link_draw(self._jitter_states,
                                              self._jitter_key, link)
