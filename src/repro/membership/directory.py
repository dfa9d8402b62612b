"""Ground-truth membership, and full-membership views that learn of
crashes late.

:class:`Membership` is the ground truth every run builds: which nodes are
registered, which of them are alive, and who a catastrophic failure
kills.  A crash takes effect in the truth at once.

:class:`MembershipDirectory` adds what the paper's full-membership
model needs on top: a :class:`~repro.membership.view.LocalView` per node,
and delayed failure notification.  When a node crashes, every survivor's
view learns about it after an individually sampled delay (uniform in
``[0, 2 * mean_detection_delay]``, so the *average* matches the paper's
"surviving nodes learn about the failure an average of 10 s after it
happened").  A run builds the directory only when its gossip nodes take
their views from it; Cyclon runs and the tree baseline read other views
(or none), so they build the truth alone and draw no detection delays.

Population state is O(N): there is **one**
:class:`~repro.membership.view.Roster` — every id ever registered, in
ascending order whatever the registration order — and the directory
issues views *onto* it.  A view holds a private member set only once it
differs from the roster (see :mod:`repro.membership.view` for the
divergence contract and the sampling identity that makes the
representation unobservable):

* ``register`` is one ``insort`` plus one ``add`` per already diverged
  view, not one ``add`` per view;
* a node registered after a crash is seeded from the *alive* set, as it
  always was — its view diverges at birth by forgetting the dead — while
  unnotified survivors keep seeing the dead node until their own
  notification fires;
* a crash notification is the first divergence of the survivor it reaches,
  so after a failure private sets exist only where the news has arrived.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from operator import itemgetter, methodcaller
from typing import Dict, Iterable, List, Set

from repro.membership.view import LocalView, Roster
from repro.sim.engine import Simulator


class Membership:
    """Ground-truth membership: who is registered and who is alive."""

    def __init__(self) -> None:
        self._alive: Set[int] = set()
        self._roster = Roster()

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def register(self, node_id: int) -> None:
        """Add ``node_id`` to the roster, alive."""
        ids = self._roster.ids
        at = bisect_left(ids, node_id)
        if at < len(ids) and ids[at] == node_id:
            raise ValueError(f"node {node_id} already registered")
        ids.insert(at, node_id)
        self._alive.add(node_id)

    def register_all(self, node_ids: Iterable[int]) -> None:
        for node_id in node_ids:
            self.register(node_id)

    def is_alive(self, node_id: int) -> bool:
        return node_id in self._alive

    @property
    def alive_nodes(self) -> Set[int]:
        return set(self._alive)

    def alive_count(self) -> int:
        return len(self._alive)

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------
    def crash(self, node_id: int) -> bool:
        """Mark ``node_id`` dead; False if it was not alive."""
        if node_id not in self._alive:
            return False
        self._alive.remove(node_id)
        return True

    def pick_crash_victims(self, fraction: float, rng: random.Random,
                           protect: Iterable[int] = ()) -> List[int]:
        """Choose ``fraction`` of the alive nodes uniformly at random,
        never choosing the protected ids (e.g. the stream source).

        The paper takes victims "uniformly at random from the set of all
        nodes, i.e., keeping the average capability supply ratio unchanged".
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction!r}")
        protected = set(protect)
        candidates = sorted(self._alive - protected)
        count = round(fraction * len(self._alive))
        count = min(count, len(candidates))
        return rng.sample(candidates, count)


class MembershipDirectory(Membership):
    """Ground-truth membership plus per-node delayed views."""

    def __init__(self, sim: Simulator, rng: random.Random,
                 mean_detection_delay: float = 10.0):
        if mean_detection_delay < 0:
            raise ValueError(f"negative detection delay {mean_detection_delay!r}")
        super().__init__()
        self._sim = sim
        self._rng = rng
        self.mean_detection_delay = mean_detection_delay
        self._views: Dict[int, LocalView] = {}

    def register(self, node_id: int) -> LocalView:
        """Add a node; its view is initialized with all currently alive nodes
        and every existing view learns about it immediately (joins are
        cheap to advertise through the join protocol)."""
        super().register(node_id)
        roster = self._roster
        for diverged_view in roster.diverged:
            diverged_view.add(node_id)
        view = LocalView(node_id, roster=roster)
        self._views[node_id] = view
        if len(self._alive) != len(roster.ids):
            # Somebody has crashed: a joiner knows the alive, not the dead.
            for other_id in roster.ids:
                if other_id not in self._alive:
                    view.remove(other_id)
        return view

    def view_of(self, node_id: int) -> LocalView:
        return self._views[node_id]

    def crash(self, node_id: int) -> bool:
        """Mark ``node_id`` dead; schedule delayed removal from survivors' views."""
        if not super().crash(node_id):
            return False
        survivors = [view for other_id, view in self._views.items()
                     if other_id != node_id and other_id in self._alive]
        if self.mean_detection_delay == 0:
            for view in survivors:
                view.remove(node_id)
            return True
        # Draw in view order (the order the seeded stream is consumed in
        # is part of every trace), then queue the removals in due order
        # on one lane, so the heap holds one entry for this crash instead
        # of one per survivor.  The posts take one consecutive block of
        # seqs, so against every other event they order exactly as
        # per-survivor posts in view order would, and the stable sort
        # keeps view order among equal delays.  ``high * draw()`` is
        # ``uniform(0.0, high)`` bit for bit, one call frame cheaper.
        draw = self._rng.random
        high = 2.0 * self.mean_detection_delay
        draws = sorted([(high * draw(), view) for view in survivors],
                       key=itemgetter(0))
        self._sim.lane(methodcaller("remove", node_id)).post_many(draws)
        return True
