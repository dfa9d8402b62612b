"""Structured failure records raised or collected by supervision.

Three shapes, one per supervised layer:

* :class:`CellFailure` — a grid cell whose worker kept dying after the
  retry budget was spent.  It is *data*, not an exception: the sweep
  completes its remaining cells and the failure rides along in the
  :class:`~repro.experiments.parallel.GridResult` as a degraded-result
  record.
* :class:`ShardFailure` — a sharded scenario lost a worker (exit, wedged
  barrier, corrupt wire buffer).  It *is* an exception, because a
  sharded scenario is all-or-nothing: every shard owns part of the
  population, so a dead shard invalidates the whole run.  It subclasses
  ``RuntimeError`` so existing callers that guard the sharded driver
  keep working.
* :class:`TornCheckpointInjected` — the torn-checkpoint-write fault
  fired: the checkpoint file has been deliberately truncated mid-line
  (simulating a writer killed mid-``write``) and the run aborted so a
  resume can prove the repair path.
"""

from dataclasses import dataclass
from typing import Tuple

__all__ = ["CellFailure", "ShardFailure", "TornCheckpointInjected"]


@dataclass(frozen=True)
class CellFailure:
    """A quarantined poison cell: every attempt died, sweep continued."""

    index: int
    scenario_index: int
    scenario_name: str
    seed_index: int
    seed: int
    kind: str  # "crash" | "timeout"
    attempts: int
    message: str

    def render(self) -> str:
        return (
            f"[{self.index}] {self.scenario_name} seed={self.seed}: "
            f"{self.kind} after {self.attempts} attempt(s) — {self.message}"
        )

    def to_jsonable(self) -> dict:
        return {
            "index": self.index,
            "scenario_index": self.scenario_index,
            "scenario_name": self.scenario_name,
            "seed_index": self.seed_index,
            "seed": self.seed,
            "kind": self.kind,
            "attempts": self.attempts,
            "message": self.message,
        }


class ShardFailure(RuntimeError):
    """A shard worker died or missed a window barrier deadline.

    Carries enough structure for supervision to decide (and tests to
    assert) exactly what happened: which shard, which window it was
    being waited on for, the last barrier it actually reached, and why
    the coordinator gave up ("exited", "barrier timeout", "error",
    "corrupt wire").
    """

    def __init__(
        self,
        shard: int,
        window_index: int,
        last_barrier: int,
        reason: str,
        detail: str = "",
    ) -> None:
        self.shard = shard
        self.window_index = window_index
        self.last_barrier = last_barrier
        self.reason = reason
        self.detail = detail
        where = (
            f"at window {window_index}" if window_index >= 0 else "before the first window"
        )
        barrier = (
            f"last barrier reached: {last_barrier}" if last_barrier >= 0 else "no barrier reached"
        )
        message = f"shard {shard} {reason} {where} ({barrier})"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


class TornCheckpointInjected(RuntimeError):
    """Raised after the torn-checkpoint-write fault tears the file."""

    def __init__(self, path: str, index: int) -> None:
        self.path = path
        self.index = index
        super().__init__(
            f"injected torn checkpoint write after record {index} in {path} "
            f"(simulated writer kill; resume to repair)"
        )


def render_failures(failures: Tuple[CellFailure, ...]) -> Tuple[str, ...]:
    """Render lines for a failure block (empty tuple when clean)."""

    if not failures:
        return ()
    lines = [f"failed cells ({len(failures)}):"]
    lines.extend("  " + failure.render() for failure in failures)
    return tuple(lines)
