"""R501: the tree's declared invariants, one row each.

:data:`INVARIANTS` is the policy, :class:`InvariantRule` the mechanism.
Like ``grep``, a row's regex applies to every line in its scope,
comments included.  Paths compare from their ``src/repro``,
``benchmarks``, ``examples``, ``ledger`` or ``tests`` component down,
so a copy of the tree scopes like the original.  This module, which
spells every pattern out, is the one file exempt.
"""

from __future__ import annotations

import os
import re
from typing import Iterator, NamedTuple, Optional, Tuple

from repro.lint.findings import Finding
from repro.lint.registry import rule

_ANCHORS = ("benchmarks", "examples", "ledger", "tests")
_TABLE = "src/repro/lint/rules/invariants.py"


class Invariant(NamedTuple):
    """``pattern`` may match in ``scope`` (path prefixes) only in
    ``homes`` (none: a tombstone); ``reason`` names its CHANGES.md entry;
    ``example`` is a line the row must flag."""

    pattern: str
    scope: Tuple[str, ...]
    homes: Tuple[str, ...]
    reason: str
    example: str


_SRC = ("src/repro",)
_SRC_BENCH = ("src/repro", "benchmarks")

INVARIANTS: Tuple[Invariant, ...] = (
    Invariant(r"\.sentinel|connection\.wait|mpconn\.wait|\.Process\(",
              _SRC, ("src/repro/faults/supervise.py",),
              "one process supervisor, two clients: the pool and the shard "
              "driver ('The service runs cells on one supervised pool')",
              "ready = connection.wait(children, timeout)"),
    Invariant(r"repro\.cli|from repro import cli",
              _SRC, ("src/repro/__main__.py",),
              "nothing below the CLI imports it ('One way to run a spec')",
              "from repro.cli import main"),
    Invariant(r"random\.Random\(",
              ("src/repro/net/latency.py", "src/repro/net/loss.py"), (),
              "a link's randomness is one int of stream state ('Per-pair "
              "draws from counter-based link streams')",
              "rng = random.Random(seed)"),
    Invariant(r"(?i)0xBF58476D1CE4E5B9|0x94D049BB133111EB",
              ("src/repro", "benchmarks", "tests", "ledger", "examples"),
              ("src/repro/sim/rng.py",),
              "SplitMix64 is written out once ('Third spend of the ledger')",
              "z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9"),
    Invariant(r"_buckets|_theap|_active_idx|_run_counted", _SRC_BENCH, (),
              "one (time, seq) event heap; buckets coalesced 0 of 624,665 "
              "events ('One event queue, no envelope free list')",
              "self._buckets = {}"),
    Invariant(r"reuse_envelopes|POOL_CAP|_recycle\b", _SRC_BENCH, (),
              "envelopes are never recycled through a free list ('One "
              "event queue, no envelope free list')", "POOL_CAP = 4096"),
    Invariant(r"_ArrivalBucket|route_many|add_received", _SRC, (),
              "one delivery path; arrival buckets coalesced 0 of 263,063 "
              "datagrams ('The envelope is the event')",
              "self.router.route_many(envelopes)"),
    Invariant(r"gc\.(disable|enable)\(", _SRC, ("src/repro/sim/engine.py",),
              "one collector pause, around the run loop ('Second spend of "
              "the ledger')", "gc.disable()"),
    Invariant(r"gc\.collect\(", _SRC, ("src/repro/experiments/parallel.py",),
              "one collection per cell, where its graph dies ('Second "
              "spend of the ledger')", "gc.collect()"),
    Invariant(r"gc\.(freeze|unfreeze)\(",
              _SRC, ("src/repro/faults/supervise.py",),
              "one freeze, at a supervised child's entry ('A grid cell's "
              "work outside the event loop')", "gc.freeze()"),
    Invariant(r"_ROW\b|_NO_PAYLOAD|payload_ref|_interned|_refcounts"
              r"|EVENT_JOIN|WIRE_BATCH_TAG|on_membership_event",
              _SRC_BENCH, (),
              "one pickle per (window, peer), no hand-made codec ('One "
              "pickle per (window, peer)')", "_ROW = struct.Struct('<iid')"),
    Invariant(r"_sim\.post(_at)?\(",
              ("src/repro/core/retransmission.py",
               "src/repro/membership/directory.py"), (),
              "timer waits ride lanes ('Waits leave the event heap')",
              "self._sim.post_at(due, self._expire)"),
    Invariant(r"NodeTrafficStats|\.per_node\b|stats\.node\("
              r"|bytes_(up|down)\b|datagrams_(up|down)\b", _SRC_BENCH, (),
              "no per-node traffic ledger; Figure 4 reads the uplink ('The "
              "datagram hot path stops paying for counters nobody reads')",
              "self.stats.node(src).bytes_up += size"),
    Invariant(r"ViewEntry|\.age \+= 1", _SRC_BENCH, (),
              "Cyclon ages are stamps ('Cyclon views age by epoch')",
              "entry.age += 1"),
    Invariant(r"FecCodec|WindowState\b|GilbertElliott|LogNormalLatency"
              r"|UniformLatency|\.lower_bound\(|kind_id_of|datagram_size\("
              r"|repro\.net\.demux|repro\.sim\.process|\bgroup_by\b",
              ("src/repro", "benchmarks", "examples"), (),
              "deleted models stay deleted ('Delete what no run reaches')",
              "from repro.net.demux import Demux"),
    Invariant(r"cached_run|cached_result|\brun_fn\b",
              ("src/repro", "benchmarks", "examples"), (),
              "no process keeps a finished run ('No process keeps a "
              "finished run')", "result = cached_run(config)"),
    Invariant(r"(default|using)_shard_supervision",
              ("src/repro", "benchmarks", "examples", "tests"), (),
              "run_sharded takes no supervision at all, let alone from "
              "process-wide state ('Retire the --shards surface'; "
              "'Sharded runs fail once and say so')",
              "supervision = default_shard_supervision()"),
    Invariant(r"ShardSupervision|has_shard_faults|shard_exit|shard_stall"
              r"|drop_wire|barrier_timeout|SHARD_EXIT_CODE",
              ("src/repro", "benchmarks", "examples", "tests"), (),
              "a sharded run has no restart budget, barrier deadline or "
              "fault hook: a lost shard raises one ShardFailure ('Sharded "
              "runs fail once and say so')",
              "supervision = ShardSupervision(restarts=1)"),
    Invariant(r"_SUMMARY_CACHE|clear_summary_cache|table_specs",
              ("src/repro", "benchmarks", "examples", "tests"), (),
              "artifacts plan and one call runs them, so no cache or "
              "precomputed spec outlives that call ('Artifacts plan, one "
              "driver runs')", "clear_summary_cache()"),
    Invariant(r"grid_jobs|grid-jobs",
              ("src/repro", "benchmarks", "examples", "tests"), (),
              "no job sizes a pool of its own ('The service runs cells "
              "on one supervised pool')", "JobManager(grid_jobs=2)"),
    Invariant(r"\.(validate|violations)\(|def (validate|violations)\("
              r"|(SweepSpec|RenderSpec|spec)\.check\b|def check\(self\)",
              ("src/repro", "benchmarks", "examples"), (),
              "a value refuses itself when it is built, so no caller "
              "checks it again ('Valid by construction')",
              "config.validate()"),
    Invariant(r"baseline_key|(write|load)_baseline|filter_baselined"
              r"|BaselineError|lint\.baseline|--(write-)?baseline\b",
              ("src/repro", "benchmarks", "examples", "tests"), (),
              "the tree is lint-clean with no grandfathered findings "
              "('Valid by construction')",
              "from repro.lint.baseline import load_baseline"),
)

def tree_path(path: str) -> Optional[str]:
    """``path`` from its innermost anchor down (None outside the tree)."""
    parts = os.path.normpath(path).replace("\\", "/").split("/")
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] in _ANCHORS or parts[i:i + 2] == ["src", "repro"]:
            return "/".join(parts[i:])
    return None


@rule
class InvariantRule:
    id = "R501"
    name = "declared-invariants"
    rationale = ("a row of the INVARIANTS table matches outside its home "
                 "files (anywhere, for a tombstone); cannot be suppressed")
    suppressible = False

    def check(self, ctx) -> Iterator[Finding]:
        tree = tree_path(ctx.path)
        if tree is None or tree == _TABLE:
            return
        rows = [row for row in INVARIANTS if tree not in row.homes and any(
            tree == s or tree.startswith(s + "/") for s in row.scope)]
        for number, line in enumerate(ctx.lines, start=1):
            for row in rows:
                match = re.search(row.pattern, line)
                if match is not None:
                    where = ("only in " + ", ".join(row.homes)
                             if row.homes else "nowhere")
                    yield Finding(
                        rule=self.id, path=ctx.path, line=number,
                        col=match.start() + 1, text=line.strip(),
                        message=f"{match.group(0)!r} belongs {where}: "
                                f"{row.reason}")
