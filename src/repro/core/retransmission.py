"""Request retransmission (Algorithm 2, middle column).

When a node requests ids from a proposer it arms a timer; if some ids are
still undelivered when it fires, the node re-requests them from the same
proposer (the paper's ``receive [Propose, eProposed]`` re-processing).
After the retry budget is exhausted the ids are released from
``eRequested`` so that a *different* proposer's next [Propose] can pick
them up — without this, a single lost [Serve] would permanently hole the
stream, which is why the paper pairs UDP with retransmission.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence

from repro.sim.engine import Lane, Simulator


class RetransmissionManager:
    """Tracks outstanding requests for one node."""

    __slots__ = ("_sim", "_lane", "period", "max_retries", "_is_delivered",
                 "_resend", "_release", "retransmissions", "abandoned",
                 "_outstanding")

    def __init__(self, sim: Simulator, period: float, max_retries: int,
                 is_delivered: Callable[[int], bool],
                 resend: Callable[[int, List[int]], None],
                 release: Callable[[Iterable[int]], None]):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period!r}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries!r}")
        self._sim = sim
        # Every expiry is armed ``period`` after the event that armed it,
        # so expiries come due in the order they are armed: one lane
        # holds them all, and only the next one sits in the event heap.
        # Made on the first track(): a lane's queue is a 760-byte deque,
        # and many nodes of a short or sharded run never request.
        self._lane: Optional[Lane] = None
        self.period = period
        self.max_retries = max_retries
        self._is_delivered = is_delivered
        self._resend = resend
        self._release = release
        self.retransmissions = 0
        self.abandoned = 0
        self._outstanding = 0

    # ------------------------------------------------------------------
    def track(self, peer: int, ids: Sequence[int]) -> None:
        """Arm a timer for a [Request] just sent to ``peer``."""
        if not ids:
            return
        self._outstanding += 1
        lane = self._lane
        if lane is None:
            lane = self._lane = self._sim.lane(self._expire)
        # A tuple holds the ids whatever the caller does to its sequence
        # afterwards; the sent Request's own ids tuple is kept as is.
        lane.post(self.period, peer, tuple(ids), self.max_retries)

    def outstanding(self) -> int:
        """Number of armed timers (diagnostic)."""
        return self._outstanding

    # ------------------------------------------------------------------
    def _expire(self, proposer: int, ids: Sequence[int], retries_left: int) -> None:
        self._outstanding -= 1
        missing = [packet_id for packet_id in ids if not self._is_delivered(packet_id)]
        if not missing:
            return  # everything arrived; nothing to do
        if retries_left > 0:
            self.retransmissions += 1
            self._resend(proposer, missing)
            self._outstanding += 1
            self._lane.post(self.period, proposer, missing, retries_left - 1)
        else:
            # Give up on this proposer: free the ids so future proposals
            # from other nodes can re-trigger a request.
            self.abandoned += 1
            self._release(missing)
