"""Message envelopes, the payload protocol, and the kind-id registry.

A :class:`Payload` is any protocol-level message (propose, request, serve,
aggregation, ...).  Payloads know their own wire size in bytes; the
network adds a fixed per-datagram header (UDP/IP) on top.  Sizes drive the
uplink serialization delay, so getting them right is what makes the
congestion behaviour realistic.

**Kind ids.**  Every payload class carries two class attributes: ``kind``,
the human-readable display name (it survives in
:class:`~repro.net.stats.NetworkStats` breakdowns and reprs), and
``kind_id``, a small dense integer interned through :func:`register_kind`.
All routing — the network's per-endpoint dispatch tables, a node's
co-hosted protocol handlers — happens on the integer, so the
per-datagram cost of demultiplexing is one list/dict index instead of a
chain of string compares.  Protocol modules register their kinds at
import time::

    class Propose:
        kind = "propose"
        kind_id = register_kind("propose")

:func:`register_kind` raises on a duplicate name (two protocols silently
sharing a kind would cross-deliver), while :func:`intern_kind` is the
lookup variant for dynamic callers: it raises on an unknown name unless
the caller passes ``register=True`` (tests, ad-hoc tooling) — a lookup
that silently registered could be reached on one side of a fork/spawn
boundary only, skewing kind-id tables between shard workers.

:class:`Envelope` is plain data, not an event: the router queues
``deliver(envelope)`` at its arrival time as one heap entry (see
:mod:`repro.net.router`), so an envelope carries no reference back to
its fabric.  Envelopes are never reused: a receiver may keep the one it
is handed.
"""

from __future__ import annotations

from typing import Dict, List, Protocol, Tuple

#: UDP (8) + IPv4 (20) header bytes added to every datagram.
UDP_IP_HEADER_BYTES = 28

# ----------------------------------------------------------------------
# kind-id registry
# ----------------------------------------------------------------------
_KIND_IDS: Dict[str, int] = {}
_KIND_NAMES: List[str] = []


def register_kind(name: str) -> int:
    """Intern a new payload kind; returns its dense integer id.

    Raises :class:`ValueError` if ``name`` is already registered — two
    protocols must never share a kind, or their messages would be
    routed to whichever handler registered last.
    """
    if not name:
        raise ValueError("kind name must be non-empty")
    if name in _KIND_IDS:
        raise ValueError(f"payload kind {name!r} is already registered "
                         f"(id {_KIND_IDS[name]})")
    kind_id = len(_KIND_NAMES)
    _KIND_IDS[name] = kind_id
    _KIND_NAMES.append(name)
    return kind_id


def intern_kind(name: str, *, register: bool = False) -> int:
    """The id for ``name``; raises :class:`KeyError` if unknown.

    Kind-id tables must be identical across fork/spawn shard workers,
    which only holds when every registration happens at import time in
    the same module order.  A *lookup* that silently registered on a
    miss (the historical behaviour) could therefore be reached on one
    side of a process boundary only and skew every id after it — so an
    unknown name now raises instead.  Dynamic callers that really do
    own a new kind (tests, ad-hoc tooling) opt in with
    ``register=True``, which keeps the old idempotent register-if-
    missing semantics; the lint rule K302 flags that form outside
    import-time code.
    """
    kind_id = _KIND_IDS.get(name)
    if kind_id is None:
        if not register:
            raise KeyError(
                f"unknown payload kind {name!r}; register it at module "
                f"import time via register_kind, or pass register=True "
                f"for deliberately dynamic kinds (known: "
                f"{', '.join(_KIND_NAMES) or 'none'})")
        kind_id = register_kind(name)
    return kind_id


def kind_name(kind_id: int) -> str:
    """The display name behind a kind id."""
    return _KIND_NAMES[kind_id]


def kind_count() -> int:
    """Number of registered kinds (ids are ``range(kind_count())``)."""
    return len(_KIND_NAMES)


def registered_kinds() -> Tuple[str, ...]:
    """All registered kind names, in id order."""
    return tuple(_KIND_NAMES)


class Payload(Protocol):
    """Structural interface every protocol message implements.

    Payloads must be treated as immutable once sent: the fabric may hold
    a reference past the ``send`` call (a multicast shares one payload
    object across destinations, and a shard router holds it until the
    next window barrier pickles it once per peer shard) — mutating a
    sent payload would corrupt datagrams still in flight.  Every in-tree payload freezes its fields at construction.
    """

    kind: str
    kind_id: int

    def wire_size(self) -> int:
        """Size of the serialized payload in bytes (headers excluded)."""
        ...


class Envelope:
    """One datagram in flight from ``src`` to ``dst``."""

    __slots__ = ("src", "dst", "payload", "size_bytes", "send_time",
                 "arrival_time", "_exit_time")

    def __init__(self, src: int, dst: int, payload: Payload, size_bytes: int,
                 send_time: float, arrival_time: float):
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size_bytes = size_bytes
        self.send_time = send_time
        self.arrival_time = arrival_time
        # The uplink exit time is stamped by whoever timed the datagram
        # (Network.send, or ``arrived`` on the wire-decode path).
        self._exit_time = 0.0

    @classmethod
    def arrived(cls, src: int, dst: int, payload: Payload, size_bytes: int,
                send_time: float, exit_time: float,
                arrival_time: float) -> "Envelope":
        """Rebuild a fully-timed envelope (wire decode entry point).

        The cross-shard wire paths reconstruct envelopes whose uplink
        exit time was decided on the sending shard; this constructor
        restores it in one call instead of leaving ``_exit_time`` for
        the caller to patch.
        """
        envelope = cls(src, dst, payload, size_bytes, send_time, arrival_time)
        envelope._exit_time = exit_time
        return envelope

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Envelope({self.payload.kind} {self.src}->{self.dst}, "
            f"{self.size_bytes}B, t={self.send_time:.3f}->{self.arrival_time:.3f})"
        )
