"""A node's local membership view with uniform random sampling.

A :class:`LocalView` has one of two representations behind one surface
(``add``, ``remove``, ``in``, ``len``, ``members``, ``sample``):

* **private** — its own ``set`` of ids plus a lazily sorted list of the
  same.  This is what ``LocalView(owner, members)`` builds: Cyclon's
  partial views, tests, anything not issued by a directory.
* **shared** — owner + a reference to the :class:`Roster` of the
  :class:`~repro.membership.directory.MembershipDirectory` that issued
  it, and nothing else.  Under full membership every view is "everyone
  registered, minus me", so N views cost O(N) together instead of N
  private sets of N−1 ids; a registration is one ``insort`` into the
  roster and every shared view sees it.

A shared view **diverges** — copies the roster into a private set, once,
and enlists itself in ``roster.diverged`` so that the directory keeps
telling it about joins — at its first real difference from the roster: a
``remove`` of a present id (a crash notification) or an ``add`` of an
unregistered one.  No-op mutations do not diverge it.  It never converges
back.

**Sampling identity.**  Both representations draw from the same candidate
order (ascending ids, owner excluded) with the same RNG consumption, so
which one a view is in is unobservable — golden traces and digests cannot
tell.  Neither calls ``random.sample``: :func:`sample_indices` returns
the indices ``rng.sample(range(n), k)`` would, making the same
``rng.getrandbits`` calls (the same pool/set switch, the same rejection
loops) without ``sample``'s frame and one ``_randbelow`` frame per
partner.  ``random.sample`` only ever looks at a population's ``len``
and positions, so the element it would return is the candidate at that
index: the private path takes ``candidates[j]``, and the shared path
``roster[j]`` below the owner's position and ``roster[j + 1]`` from it
on.  ``k == 1`` — every aggregation round, ``aggregation_fanout = 1``
being the paper's value — is one ``rng._randbelow(n)``: on either side
of the switch a sample of one is ``population[j]`` for that single
``j``.  It is also exactly the call ``rng.randrange(n)`` makes for
``n > 0`` (CPython 3.11 and 3.12), minus the argument handling.  The
owner's position in the roster is cached per view and recomputed only
when the roster's length changes: the roster only grows and stays
sorted, so a registration below the owner — the one thing that moves it
— also changes the length.  ``tests/test_membership_view.py`` pins these
identities on both sides of the switch.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from math import ceil, log
from typing import Iterable, List, Optional, Set


def _find(ids: List[int], node_id: int) -> int:
    """Index of ``node_id`` in the ascending ``ids``; ``len(ids)`` if absent."""
    at = bisect_left(ids, node_id)
    return at if at < len(ids) and ids[at] == node_id else len(ids)


def sample_indices(rng: random.Random, n: int, k: int) -> List[int]:
    """``rng.sample(range(n), k)``, ``0 <= k <= n``: the same indices in
    the same order, and the same ``rng.getrandbits`` calls."""
    getrandbits = rng.getrandbits
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    result = []
    if n <= setsize:
        # ``sample``'s pool: a draw below ``n - i`` picks from the first
        # ``n - i`` entries, and the last of them fills the hole.
        pool = list(range(n))
        for i in range(k):
            size = n - i
            bits = size.bit_length()
            j = getrandbits(bits)
            while j >= size:
                j = getrandbits(bits)
            result.append(pool[j])
            pool[j] = pool[size - 1]
        return result
    # ``sample``'s set: redraw a draw past ``n`` or already taken.
    bits = n.bit_length()
    selected = set()
    for _ in range(k):
        j = getrandbits(bits)
        while j >= n or j in selected:
            j = getrandbits(bits)
        selected.add(j)
        result.append(j)
    return result


class Roster:
    """The sorted ids a directory has registered, shared by its views.

    ``ids`` only grows and stays ascending; ``diverged`` lists the views
    that left the roster for a private set and therefore have to be told
    about later registrations one by one.
    """

    __slots__ = ("ids", "diverged")

    def __init__(self) -> None:
        self.ids: List[int] = []
        self.diverged: List["LocalView"] = []


class LocalView:
    """The set of peers one node currently believes to be alive.

    Sampling is uniform without replacement and always excludes the
    owner itself, matching ``selectNodes(f)`` in the paper's Algorithm 1
    ("return f uniformly random nodes").
    """

    __slots__ = ("owner", "_roster", "_members", "_members_list", "_dirty",
                 "_at", "_at_size")

    def __init__(self, owner: int, members: Optional[Iterable[int]] = None,
                 *, roster: Optional[Roster] = None):
        if roster is not None and members is not None:
            raise ValueError("a view is seeded from members or a roster, not both")
        self.owner = owner
        # Shared while _roster is set; _members is the private set otherwise.
        self._roster = roster
        self._members: Optional[Set[int]] = None
        self._members_list: List[int] = []
        self._dirty = True
        # Shared views: the owner's roster index, valid while the roster
        # holds _at_size ids (it only grows, so its length names it).
        self._at = 0
        self._at_size = -1
        if roster is None:
            self._members = set(members) if members is not None else set()
            self._members.discard(owner)

    def _on_roster(self, node_id: int) -> bool:
        ids = self._roster.ids
        return _find(ids, node_id) < len(ids)

    def _diverge(self) -> Set[int]:
        members = self._members = self.members()
        self._roster.diverged.append(self)
        self._roster = None
        return members

    def add(self, node_id: int) -> None:
        if node_id == self.owner:
            return
        members = self._members
        if members is None:
            if self._on_roster(node_id):
                return
            members = self._diverge()
        if node_id not in members:
            members.add(node_id)
            self._dirty = True

    def remove(self, node_id: int) -> None:
        members = self._members
        if members is None:
            if node_id == self.owner or not self._on_roster(node_id):
                return
            members = self._diverge()
        if node_id in members:
            members.remove(node_id)
            self._dirty = True

    def __contains__(self, node_id: int) -> bool:
        if self._members is None:
            return node_id != self.owner and self._on_roster(node_id)
        return node_id in self._members

    def __len__(self) -> int:
        if self._members is None:
            ids = self._roster.ids
            return len(ids) - (_find(ids, self.owner) < len(ids))
        return len(self._members)

    def members(self) -> Set[int]:
        """A copy of the current member set."""
        if self._members is None:
            members = set(self._roster.ids)
            members.discard(self.owner)
            return members
        return set(self._members)

    def _as_list(self) -> List[int]:
        if self._dirty:
            # Sorted for determinism: iteration order of a set of ints is
            # stable in CPython but not guaranteed by the language.
            self._members_list = sorted(self._members)
            self._dirty = False
        return self._members_list

    def sample(self, k: int, rng: random.Random,
               exclude: Optional[Set[int]] = None) -> List[int]:
        """Return up to ``k`` distinct members, uniformly at random.

        Returns fewer than ``k`` when the (filtered) view is smaller.
        """
        if k <= 0:
            return []
        if self._members is None:
            ids = self._roster.ids
            if not exclude:
                size = len(ids)
                if self._at_size != size:
                    self._at = _find(ids, self.owner)
                    self._at_size = size
                at = self._at
                n = size - (at < size)
                if k >= n:
                    return ids[:at] + ids[at + 1:]
                # See "Sampling identity" in the module docstring.
                if k == 1:
                    j = rng._randbelow(n)
                    return [ids[j] if j < at else ids[j + 1]]
                return [ids[j] if j < at else ids[j + 1]
                        for j in sample_indices(rng, n, k)]
            owner = self.owner
            candidates = [m for m in ids if m != owner and m not in exclude]
        else:
            candidates = self._as_list()
            if exclude:
                candidates = [m for m in candidates if m not in exclude]
        n = len(candidates)
        if k >= n:
            return list(candidates)
        if k == 1:
            return [candidates[rng._randbelow(n)]]
        return [candidates[j] for j in sample_indices(rng, n, k)]
