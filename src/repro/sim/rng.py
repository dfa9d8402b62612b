"""Named, seeded random-number streams.

Every source of randomness in an experiment (latency jitter, message
loss, peer selection, churn victim choice, workload assignment, ...)
draws from its own named stream derived from one master seed.  This keeps
experiments bit-for-bit reproducible *and* lets one vary a single source
of randomness (e.g. reshuffle peer selection) while holding the others
fixed — which the ablation benches rely on.

Two kinds of stream live here:

* **named streams** (:class:`RngRegistry`): a handful per experiment, each
  a :class:`random.Random` (2.5 KB of Mersenne Twister state) seeded
  through :func:`derive_seed`;
* **link streams**: one per network link, potentially millions, so a
  stream's whole state is one 64-bit integer the caller keeps in a dict
  keyed by the integer link id ``(src << 32) + dst``.
  :func:`link_stream` and :func:`splitmix64` define them;
  :func:`link_draw` (one draw, stream state kept in the caller's dict)
  and :func:`stream_head` (a stream's first two draws, no state kept)
  are what the per-pair latency and loss models call, once per draw.

SplitMix64's arithmetic lives in this module only.  The two draw
functions write it out inline rather than calling :func:`_mix64`: they
run once per datagram, and a link's first draw through
``link_stream`` + ``splitmix64`` is four Python calls where
:func:`link_draw` is one (1.32 vs 1.02 µs a draw, dict work included,
on a 2-vCPU x86 guest under CPython 3.11).
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Tuple

_MASK64 = 0xFFFFFFFFFFFFFFFF
#: SplitMix64's state increment: 2**64 / golden ratio, rounded to odd.
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
#: The two multipliers of SplitMix64's output function (Stafford's
#: variant 13).
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a child seed from ``master_seed`` and a stream ``name``.

    Uses SHA-256 rather than Python's salted ``hash()`` so derivation is
    stable across interpreter runs and versions.
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _mix64(z: int) -> int:
    """SplitMix64's output function (Stafford's variant 13): a bijection
    on 64-bit integers in which every input bit flips every output bit
    with probability ~1/2."""
    z = (z ^ (z >> 30)) * _MIX1 & _MASK64
    z = (z ^ (z >> 27)) * _MIX2 & _MASK64
    return z ^ (z >> 31)


def link_stream(key: int, src: int, dst: int) -> int:
    """Initial state of the stream of link ``(src, dst)`` under ``key``.

    It is output number ``src * 2**32 + dst`` of the SplitMix64 generator
    seeded with ``key``: cheap arithmetic (no hashing, no allocation
    beyond the integer itself), distinct for distinct links with node ids
    in ``[0, 2**32)``, and as unrelated between adjacent ids as
    consecutive outputs of that generator are.  ``key`` should come from
    :func:`derive_seed`, one per purpose, so two models (or the base and
    jitter streams of one model) never share a link's stream.
    """
    return _mix64(key + ((src << 32) + dst) * GOLDEN_GAMMA & _MASK64)


def splitmix64(state: int) -> Tuple[int, float]:
    """One draw from a link stream: ``(next state, uniform in [0, 1))``.

    A SplitMix64 step — add the golden gamma, mix, keep the top 53 bits.
    The generator is counter-based: the k-th draw of a stream is a pure
    function of its initial state and k, whatever other streams did in
    between, which is what makes per-link draws independent of global
    event order.  The caller stores the returned state (one ``int``) as
    the stream.
    """
    state = state + GOLDEN_GAMMA & _MASK64
    return state, (_mix64(state) >> 11) * 2.0 ** -53


def link_draw(states: Dict[int, int], key: int, link: int) -> float:
    """The next uniform in [0, 1) of link ``link``'s stream under ``key``.

    ``link`` is the integer link id ``(src << 32) + dst``.  ``states``
    maps link ids to stream states; a link absent from it starts at
    ``link_stream(key, src, dst)``, and the advanced state is stored
    back.  Equal to one :func:`splitmix64` step from that state, in one
    call.
    """
    state = states.get(link)
    if state is None:
        z = key + link * GOLDEN_GAMMA & _MASK64
        z = (z ^ (z >> 30)) * _MIX1 & _MASK64
        z = (z ^ (z >> 27)) * _MIX2 & _MASK64
        state = z ^ (z >> 31)
    state = state + GOLDEN_GAMMA & _MASK64
    states[link] = state
    z = (state ^ (state >> 30)) * _MIX1 & _MASK64
    z = (z ^ (z >> 27)) * _MIX2 & _MASK64
    return ((z ^ (z >> 31)) >> 11) * 2.0 ** -53


def stream_head(key: int, link: int) -> Tuple[float, float]:
    """The first two uniforms of link ``link``'s stream under ``key``.

    For values drawn once per link (a pair's base latency): nothing is
    stored.  ``link`` is the integer link id ``(src << 32) + dst``.
    """
    z = key + link * GOLDEN_GAMMA & _MASK64
    z = (z ^ (z >> 30)) * _MIX1 & _MASK64
    z = (z ^ (z >> 27)) * _MIX2 & _MASK64
    state = (z ^ (z >> 31)) + GOLDEN_GAMMA & _MASK64
    z = (state ^ (state >> 30)) * _MIX1 & _MASK64
    z = (z ^ (z >> 27)) * _MIX2 & _MASK64
    first = ((z ^ (z >> 31)) >> 11) * 2.0 ** -53
    state = state + GOLDEN_GAMMA & _MASK64
    z = (state ^ (state >> 30)) * _MIX1 & _MASK64
    z = (z ^ (z >> 27)) * _MIX2 & _MASK64
    return first, ((z ^ (z >> 31)) >> 11) * 2.0 ** -53


class RngRegistry:
    """A factory of named :class:`random.Random` streams from one master seed."""

    __slots__ = ("master_seed", "_streams")

    def __init__(self, master_seed: int = 0):
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        Repeated calls with the same name return the same generator
        object, so consumption is shared between call sites on purpose.
        """
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(derive_seed(self.master_seed, name))
            self._streams[name] = rng
        return rng

    def fork(self, name: str) -> "RngRegistry":
        """Create an independent child registry (e.g. one per node)."""
        return RngRegistry(derive_seed(self.master_seed, f"fork:{name}"))

    def __contains__(self, name: str) -> bool:
        return name in self._streams
