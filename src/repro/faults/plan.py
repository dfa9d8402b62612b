"""FaultPlan: a deterministic description of which failures to inject.

A plan is parsed from a compact text form (CLI ``--faults``, SweepSpec
``faults=``) made of comma-separated clauses:

``crash-cell=K`` / ``crash-cell=KxN``
    Kill the pool worker running grid cell ``K`` with ``os._exit`` —
    on the first attempt only, or on the first ``N`` attempts.
``stall-cell=K:SECS``
    The first attempt of cell ``K`` sleeps ``SECS`` seconds before
    running (trips per-attempt timeouts / the service watchdog).
``torn-checkpoint=N``
    After the ``N``-th fresh record is appended to the grid checkpoint,
    tear the file mid-line and abort (simulated writer kill).

A second ``crash-cell`` or ``stall-cell`` for one cell, or a second
``torn-checkpoint``, is refused rather than merged or overridden.

Plans are frozen, picklable, and carry no randomness: a faulted run is
exactly reproducible.  Cell faults fire attempt-aware (``crash-cell``
stops firing once its budget is spent, so the supervised retry
succeeds).
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


def _once(faults: dict, cell: int, value, clause: str, name: str) -> None:
    if cell in faults:
        raise ValueError(f"fault clause {clause!r}: a second {name} for cell {cell}")
    faults[cell] = value


@dataclass(frozen=True)
class FaultPlan:
    """A frozen set of deterministic injection points."""

    #: (cell index, number of attempts to kill) pairs.
    crash_cells: Tuple[Tuple[int, int], ...] = ()
    #: (cell index, stall seconds) pairs — first attempt only.
    stall_cells: Tuple[Tuple[int, float], ...] = ()
    #: Tear the checkpoint after this many fresh records were appended.
    torn_checkpoint: Optional[int] = None
    #: Original text form (round-trips through SweepSpec params).
    text: str = field(default="", compare=False)

    @classmethod
    def parse(cls, text: Optional[str]) -> Optional["FaultPlan"]:
        """Parse the comma-separated clause syntax; None/blank → None."""

        if text is None or not text.strip():
            return None
        crash_cells = {}
        stall_cells = {}
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
                _once(crash_cells, _int(cell_text, clause), times, clause, name)
            elif name == "stall-cell":
                cell_text, sep, secs_text = value.partition(":")
                if not sep:
                    raise ValueError(f"fault clause {clause!r}: expected CELL:SECONDS")
                seconds = _seconds(secs_text, clause)
                _once(stall_cells, _int(cell_text, clause), seconds, clause, name)
            elif name == "torn-checkpoint":
                if torn_checkpoint is not None:
                    raise ValueError(f"fault clause {clause!r}: a second torn-checkpoint")
                torn_checkpoint = _int(value, clause)
            else:
                raise ValueError(
                    f"unknown fault clause {name!r} (expected one of: crash-cell, "
                    f"stall-cell, torn-checkpoint)"
                )
        return cls(
            crash_cells=tuple(crash_cells.items()),
            stall_cells=tuple(stall_cells.items()),
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

    def to_text(self) -> str:
        """The canonical text form (what was parsed, if available)."""

        if self.text:
            return self.text
        clauses = []
        for cell, times in self.crash_cells:
            clauses.append(f"crash-cell={cell}" if times == 1 else f"crash-cell={cell}x{times}")
        for cell, seconds in self.stall_cells:
            clauses.append(f"stall-cell={cell}:{seconds:g}")
        if self.torn_checkpoint is not None:
            clauses.append(f"torn-checkpoint={self.torn_checkpoint}")
        return ",".join(clauses)


# Keep dataclass reflection honest: `text` must stay the only
# non-compared field, or plan equality would depend on formatting.
assert [f.name for f in fields(FaultPlan) if not f.compare] == ["text"]
