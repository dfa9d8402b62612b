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
``torn-checkpoint``, is refused rather than merged or overridden.  The
constructor holds every rule but the last (one int field cannot hold two
values), so a plan built in code is one whose :meth:`FaultPlan.to_text`
parses back to it.

Plans are frozen, picklable, and carry no randomness: a faulted run is
exactly reproducible.  Cell faults fire attempt-aware (``crash-cell``
stops firing once its budget is spent, so the supervised retry
succeeds).
"""

import math
from dataclasses import dataclass, field, fields
from typing import List, Optional, Tuple

__all__ = ["FaultPlan"]


def _int(text: str, clause: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"fault clause {clause!r}: {text!r} is not an integer") from None


def _seconds(text: str, clause: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"fault clause {clause!r}: {text!r} is not a duration") from None


def _crash_clause(cell: int, times: int) -> str:
    return f"crash-cell={cell}" if times == 1 else f"crash-cell={cell}x{times}"


def _stall_clause(cell: int, seconds: float) -> str:
    # repr round-trips every float; a trailing ".0" is dropped (30, not 30.0).
    text = repr(float(seconds))
    return f"stall-cell={cell}:{text[:-2] if text.endswith('.0') else text}"


def _cell_errors(clause: str, cell: int, seen: set, problem: Optional[str]) -> List[str]:
    """``clause``'s problems: ``problem`` (its value's, if any), a
    negative index, or a cell already in ``seen`` (which gains it)."""
    problems = [problem] if problem else []
    if cell < 0:
        problems.append("index must be >= 0")
    if cell in seen:
        problems.append(f"a second {clause.partition('=')[0]} for cell {cell}")
    seen.add(cell)
    return [f"fault clause {clause!r}: {text}" for text in problems]


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

    def __post_init__(self) -> None:
        """Refuse a plan whose text form :meth:`parse` would refuse,
        every problem in one :class:`ValueError`."""

        errors = []
        seen = set()
        for cell, times in self.crash_cells:
            errors += _cell_errors(_crash_clause(cell, times), cell, seen,
                                   None if times >= 1 else "crash count must be >= 1")
        seen = set()
        for cell, seconds in self.stall_cells:
            errors += _cell_errors(
                _stall_clause(cell, seconds), cell, seen,
                None if 0 < seconds < math.inf else "duration must be positive and finite")
        if self.torn_checkpoint is not None and self.torn_checkpoint < 1:
            errors.append(f"fault clause 'torn-checkpoint={self.torn_checkpoint}': "
                          f"record count must be >= 1")
        if errors:
            raise ValueError("; ".join(errors))

    @classmethod
    def parse(cls, text: Optional[str]) -> Optional["FaultPlan"]:
        """Parse the comma-separated clause syntax; None/blank → None."""

        if text is None or not text.strip():
            return None
        crash_cells = []
        stall_cells = []
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
                crash_cells.append((_int(cell_text, clause), times))
            elif name == "stall-cell":
                cell_text, sep, secs_text = value.partition(":")
                if not sep:
                    raise ValueError(f"fault clause {clause!r}: expected CELL:SECONDS")
                stall_cells.append((_int(cell_text, clause), _seconds(secs_text, clause)))
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
            crash_cells=tuple(crash_cells),
            stall_cells=tuple(stall_cells),
            torn_checkpoint=torn_checkpoint,
            text=text,
        )

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
        clauses = [_crash_clause(cell, times) for cell, times in self.crash_cells]
        clauses += [_stall_clause(cell, seconds) for cell, seconds in self.stall_cells]
        if self.torn_checkpoint is not None:
            clauses.append(f"torn-checkpoint={self.torn_checkpoint}")
        return ",".join(clauses)


# Keep dataclass reflection honest: `text` must stay the only
# non-compared field, or plan equality would depend on formatting.
assert [f.name for f in fields(FaultPlan) if not f.compare] == ["text"]
