"""Churn scenarios.

:class:`CatastrophicFailure` reproduces Section 3.6: a fraction of the
nodes (victims drawn uniformly, so the capability supply ratio is
unchanged) crash simultaneously at a given time; when gossip nodes take
full-membership views, survivors learn about each failure after the
directory's mean detection delay (10 s in the paper).

:class:`IntervalChurn` is an extension beyond the paper's headline
experiments: continuous random crashes at a configurable rate, useful
for stress benches.

Both draw victims from, and record crashes in, the ground-truth
:class:`~repro.membership.directory.Membership`.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence

from repro.membership.directory import Membership


class CatastrophicFailure:
    """Simultaneous crash of a fraction of the nodes at ``at_time``."""

    def __init__(self, fraction: float, at_time: float = 60.0):
        if not 0.0 <= fraction < 1.0:
            raise ValueError(f"fraction must be in [0, 1), got {fraction!r}")
        if at_time < 0:
            raise ValueError(f"at_time must be >= 0, got {at_time!r}")
        self.fraction = fraction
        self.at_time = at_time
        #: Filled when the failure fires (for post-run analysis).
        self.victims: List[int] = []

    def schedule(self, sim, directory: Membership, rng: random.Random,
                 crash_node: Callable[[int], None],
                 protect: Sequence[int] = ()) -> None:
        """Arm the failure.  ``crash_node`` must kill one node id (network
        crash + protocol stop); view updates, where a run keeps full-membership
        views, flow through the directory."""

        def fire():
            self.victims = directory.pick_crash_victims(
                self.fraction, rng, protect=protect)
            for victim in self.victims:
                crash_node(victim)
                directory.crash(victim)

        sim.schedule_at(self.at_time, fire)

    def key(self) -> tuple:
        """Stable identity of the *configuration* (never the per-run
        ``victims`` state) — used by scenario cache keys and grid
        checkpoint fingerprints."""
        return ("catastrophic", self.fraction, self.at_time)

    def __repr__(self) -> str:  # pragma: no cover
        return f"CatastrophicFailure({self.fraction:.0%} at t={self.at_time}s)"


class IntervalChurn:
    """Crash one random node every ``interval`` seconds between
    ``start`` and ``stop`` (extension beyond the paper)."""

    def __init__(self, interval: float, start: float = 0.0,
                 stop: Optional[float] = None):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        self.interval = interval
        self.start = start
        self.stop = stop
        self.victims: List[int] = []

    def schedule(self, sim, directory: Membership, rng: random.Random,
                 crash_node: Callable[[int], None],
                 protect: Sequence[int] = ()) -> None:
        protected = set(protect)
        self.victims = []

        def fire():
            if self.stop is not None and sim.now > self.stop:
                return
            candidates = sorted(directory.alive_nodes - protected)
            if len(candidates) > 1:  # keep at least one node besides protected
                victim = rng.choice(candidates)
                self.victims.append(victim)
                crash_node(victim)
                directory.crash(victim)
            sim.schedule(self.interval, fire)

        sim.schedule_at(max(self.start, sim.now) + self.interval, fire)

    def key(self) -> tuple:
        """Stable configuration identity (excludes ``victims`` state)."""
        return ("interval", self.interval, self.start, self.stop)
