"""FaultPlan: a deterministic description of which failures to inject.

A plan is parsed from a compact text form (CLI ``--faults``, SweepSpec
``faults=``) made of comma-separated clauses:

``crash-cell=K`` / ``crash-cell=KxN``
    Kill the pool worker running grid cell ``K`` with ``os._exit`` —
    on the first attempt only, or on the first ``N`` attempts.
``stall-cell=K:SECS``
    The first attempt of cell ``K`` sleeps ``SECS`` seconds before
    running (trips per-attempt timeouts / the service watchdog).
``shard-exit=S@W``
    Shard worker ``S`` exits hard just before sending window ``W``.
``shard-stall=S@W:SECS``
    Shard worker ``S`` sleeps ``SECS`` seconds before sending window
    ``W`` (trips the barrier deadline).
``drop-wire=S@W``
    Shard ``S`` replaces its window-``W`` wire buffer to one peer with
    bytes that are not a pickle (torn transport), which the receiver
    fails to unpickle.
``torn-checkpoint=N``
    After the ``N``-th fresh record is appended to the grid checkpoint,
    tear the file mid-line and abort (simulated writer kill).

Plans are frozen, picklable, and carry no randomness: a faulted run is
exactly reproducible.  Cell faults fire attempt-aware (``crash-cell``
stops firing once its budget is spent, so the supervised retry
succeeds); shard faults fire only on the first scenario attempt — the
restart strips the plan.
"""

from dataclasses import dataclass, field, fields
from typing import Optional, Tuple

__all__ = ["FaultPlan"]


def _int(text: str, clause: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"fault clause {clause!r}: {text!r} is not an integer") from None
    if value < 0:
        raise ValueError(f"fault clause {clause!r}: index must be >= 0")
    return value


def _seconds(text: str, clause: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"fault clause {clause!r}: {text!r} is not a duration") from None
    if value <= 0:
        raise ValueError(f"fault clause {clause!r}: duration must be positive")
    return value


def _shard_at_window(text: str, clause: str) -> Tuple[int, int]:
    shard_text, sep, window_text = text.partition("@")
    if not sep:
        raise ValueError(f"fault clause {clause!r}: expected SHARD@WINDOW")
    return _int(shard_text, clause), _int(window_text, clause)


@dataclass(frozen=True)
class FaultPlan:
    """A frozen set of deterministic injection points."""

    #: (cell index, number of attempts to kill) pairs.
    crash_cells: Tuple[Tuple[int, int], ...] = ()
    #: (cell index, stall seconds) pairs — first attempt only.
    stall_cells: Tuple[Tuple[int, float], ...] = ()
    #: (shard, window): exit hard before sending that window.
    shard_exit: Optional[Tuple[int, int]] = None
    #: (shard, window, seconds): sleep before sending that window.
    shard_stall: Optional[Tuple[int, int, float]] = None
    #: (shard, window): corrupt that window's outbound wire buffer.
    drop_wire: Optional[Tuple[int, int]] = None
    #: Tear the checkpoint after this many fresh records were appended.
    torn_checkpoint: Optional[int] = None
    #: Original text form (round-trips through SweepSpec params).
    text: str = field(default="", compare=False)

    @classmethod
    def parse(cls, text: Optional[str]) -> Optional["FaultPlan"]:
        """Parse the comma-separated clause syntax; None/blank → None."""

        if text is None or not text.strip():
            return None
        crash_cells = []
        stall_cells = []
        shard_exit = None
        shard_stall = None
        drop_wire = None
        torn_checkpoint = None
        for raw in text.split(","):
            clause = raw.strip()
            if not clause:
                continue
            name, sep, value = clause.partition("=")
            if not sep:
                raise ValueError(f"fault clause {clause!r}: expected NAME=VALUE")
            name = name.strip()
            value = value.strip()
            if name == "crash-cell":
                cell_text, sep, times_text = value.partition("x")
                times = _int(times_text, clause) if sep else 1
                if times < 1:
                    raise ValueError(f"fault clause {clause!r}: crash count must be >= 1")
                crash_cells.append((_int(cell_text, clause), times))
            elif name == "stall-cell":
                cell_text, sep, secs_text = value.partition(":")
                if not sep:
                    raise ValueError(f"fault clause {clause!r}: expected CELL:SECONDS")
                stall_cells.append((_int(cell_text, clause), _seconds(secs_text, clause)))
            elif name == "shard-exit":
                shard_exit = _shard_at_window(value, clause)
            elif name == "shard-stall":
                target, sep, secs_text = value.partition(":")
                if not sep:
                    raise ValueError(f"fault clause {clause!r}: expected SHARD@WINDOW:SECONDS")
                shard, window = _shard_at_window(target, clause)
                shard_stall = (shard, window, _seconds(secs_text, clause))
            elif name == "drop-wire":
                drop_wire = _shard_at_window(value, clause)
            elif name == "torn-checkpoint":
                torn_checkpoint = _int(value, clause)
            else:
                raise ValueError(
                    f"unknown fault clause {name!r} (expected one of: crash-cell, "
                    f"stall-cell, shard-exit, shard-stall, drop-wire, torn-checkpoint)"
                )
        return cls(
            crash_cells=tuple(crash_cells),
            stall_cells=tuple(stall_cells),
            shard_exit=shard_exit,
            shard_stall=shard_stall,
            drop_wire=drop_wire,
            torn_checkpoint=torn_checkpoint,
            text=text,
        )

    def violations(self) -> Tuple[str, ...]:
        errors = []
        for cell, times in self.crash_cells:
            if cell < 0 or times < 1:
                errors.append(f"crash-cell {cell}x{times}: bad cell or count")
        for cell, seconds in self.stall_cells:
            if cell < 0 or seconds <= 0:
                errors.append(f"stall-cell {cell}:{seconds}: bad cell or duration")
        if self.torn_checkpoint is not None and self.torn_checkpoint < 1:
            errors.append("torn-checkpoint must be >= 1")
        return tuple(errors)

    # ------------------------------------------------------------------
    # Queries used by the supervision layers.

    @property
    def has_pool_faults(self) -> bool:
        """Faults that require (or target) the grid worker pool."""

        return bool(self.crash_cells)

    @property
    def has_cell_faults(self) -> bool:
        return bool(self.crash_cells or self.stall_cells)

    @property
    def has_shard_faults(self) -> bool:
        return (
            self.shard_exit is not None
            or self.shard_stall is not None
            or self.drop_wire is not None
        )

    def cell_fault(self, index: int, attempt: int):
        """The fault (if any) for attempt ``attempt`` of cell ``index``.

        Returns ``("crash",)``, ``("stall", seconds)`` or ``None``.
        Crash faults fire while the attempt is below their kill budget;
        stalls fire on the first attempt only.
        """

        for cell, times in self.crash_cells:
            if cell == index and attempt < times:
                return ("crash",)
        if attempt == 0:
            for cell, seconds in self.stall_cells:
                if cell == index:
                    return ("stall", seconds)
        return None

    def without_shard_faults(self) -> Optional["FaultPlan"]:
        """A copy with shard faults cleared (None if nothing remains)."""

        if not (self.has_cell_faults or self.torn_checkpoint is not None):
            return None
        return FaultPlan(
            crash_cells=self.crash_cells,
            stall_cells=self.stall_cells,
            torn_checkpoint=self.torn_checkpoint,
            text=self.text,
        )

    def to_text(self) -> str:
        """The canonical text form (what was parsed, if available)."""

        if self.text:
            return self.text
        clauses = []
        for cell, times in self.crash_cells:
            clauses.append(f"crash-cell={cell}" if times == 1 else f"crash-cell={cell}x{times}")
        for cell, seconds in self.stall_cells:
            clauses.append(f"stall-cell={cell}:{seconds:g}")
        if self.shard_exit is not None:
            clauses.append(f"shard-exit={self.shard_exit[0]}@{self.shard_exit[1]}")
        if self.shard_stall is not None:
            shard, window, seconds = self.shard_stall
            clauses.append(f"shard-stall={shard}@{window}:{seconds:g}")
        if self.drop_wire is not None:
            clauses.append(f"drop-wire={self.drop_wire[0]}@{self.drop_wire[1]}")
        if self.torn_checkpoint is not None:
            clauses.append(f"torn-checkpoint={self.torn_checkpoint}")
        return ",".join(clauses)


# Keep dataclass reflection honest: `text` must stay the only
# non-compared field, or plan equality would depend on formatting.
assert [f.name for f in fields(FaultPlan) if not f.compare] == ["text"]
