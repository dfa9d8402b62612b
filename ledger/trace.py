"""Span tracing installed from outside the program.

A traced repetition swaps class-level wrappers onto the public callables
at each layer boundary of ``src/repro`` *before* ``build_scenario`` runs
(bound methods captured during the build — ``Network._route``, timer
callbacks — then already point at the wrappers) and puts the originals
back afterwards.  Nothing in ``src/`` knows about it.

Every span has a name, a start, an end and a parent (the span that was
open when it started).  Spans are aggregated in memory by
``(name, parent name)`` into count / total / self seconds, where self
time is the span's duration minus the part its child spans cover; the
first :data:`RAW_LIMIT` raw spans are kept for inspection.  The cost of
entering and leaving a wrapper lands in the *parent's* self time, so the
engine's share is an upper bound.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

#: Raw spans kept per traced repetition (the aggregates cover all spans).
RAW_LIMIT = 20_000

#: The root span every traced repetition opens around its whole cell.
ROOT = "ledger.rep"


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        #: Open spans, innermost last: [name, child seconds, span id].
        self._stack: List[list] = []
        self._next_id = 0
        #: (name, parent name or None) -> [count, total seconds, self seconds].
        self.totals: Dict[Tuple[str, object], List[float]] = {}
        #: First RAW_LIMIT spans: [id, name, start, end, parent id or -1].
        self.raw: List[list] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span named ``name`` recorded around every call."""
        stack = self._stack
        totals = self.totals
        raw = self.raw
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [name, 0.0, span_id]
            stack.append(frame)
            if span_id < RAW_LIMIT:
                raw.append([span_id, name, 0.0, 0.0,
                            parent[2] if parent is not None else -1])
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if span_id < RAW_LIMIT:
                    slot = raw[span_id]
                    slot[2] = start
                    slot[3] = end
                key = (name, parent[0] if parent is not None else None)
                if parent is not None:
                    parent[1] += duration
                entry = totals.get(key)
                if entry is None:
                    totals[key] = [1, duration, duration - frame[1]]
                else:
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[1]

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` once inside a span named ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    # ------------------------------------------------------------------
    # reading the aggregates
    # ------------------------------------------------------------------
    def spans(self, prefix: str) -> Iterator[Tuple[str, List[float]]]:
        """(name, [count, total, self]) of every aggregate whose span
        name starts with ``prefix`` (one row per distinct parent)."""
        for (name, _parent), entry in self.totals.items():
            if name.startswith(prefix):
                yield name, entry

    def count(self, prefix: str) -> int:
        return sum(entry[0] for _, entry in self.spans(prefix))

    def total_s(self, prefix: str) -> float:
        return sum(entry[1] for _, entry in self.spans(prefix))

    def self_s(self, prefix: str) -> float:
        return sum(entry[2] for _, entry in self.spans(prefix))

    def violations(self) -> List[str]:
        """Every way the recorded spans break the span invariants: a
        child outlasting its parent, or self times that do not add up to
        the root span."""
        problems = []
        for span_id, name, start, end, parent_id in self.raw:
            if parent_id < 0:
                continue
            _, parent_name, parent_start, parent_end, _ = self.raw[parent_id]
            if start < parent_start or end > parent_end:
                problems.append(f"span {span_id} ({name}) outlasts its "
                                f"parent {parent_id} ({parent_name})")
        root = self.total_s(ROOT)
        self_sum = sum(entry[2] for entry in self.totals.values())
        if root <= 0 or abs(self_sum - root) > 0.01 * root:
            problems.append(f"self times sum to {self_sum:.6f}s but the "
                            f"root span lasted {root:.6f}s")
        return problems

    def to_jsonable(self) -> dict:
        return {
            "root": ROOT,
            "raw_limit": RAW_LIMIT,
            "spans_recorded": self._next_id,
            "aggregates": [
                {"name": name, "parent": parent, "count": entry[0],
                 "total_s": entry[1], "self_s": entry[2]}
                for (name, parent), entry in sorted(
                    self.totals.items(), key=lambda item: -item[1][2])],
            "raw_columns": ["id", "name", "start", "end", "parent_id"],
            "raw": self.raw,
        }


def _subclasses(cls) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _timer_init(tracer: Tracer, original: Callable, position: int) -> Callable:
    """A timer ``__init__`` that hands the real one a traced callback,
    named by the callback's defining module and ``__qualname__``."""

    def traced_init(self, *args, **kwargs):
        args = list(args)
        callback = args[position] if len(args) > position \
            else kwargs["callback"]
        function = getattr(callback, "__func__", callback)
        module = function.__module__.removeprefix("repro.")
        wrapped = tracer.wrap(f"timer:{module}.{function.__qualname__}",
                              callback)
        if len(args) > position:
            args[position] = wrapped
        else:
            kwargs["callback"] = wrapped
        original(self, *args, **kwargs)

    traced_init.__wrapped__ = original
    return traced_init


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install the layer-boundary wrappers; restore the originals on exit.

    Must be entered *before* ``build_scenario``: the build captures bound
    methods (``Network._route``) and constructs the timers.
    """
    from repro.net.latency import LatencyModel
    from repro.net.loss import LossModel
    from repro.net.network import Network
    from repro.net.router import InprocRouter
    from repro.net.shard import ShardRouter
    from repro.sim.engine import Simulator
    from repro.sim.timers import OneShotTimer, PeriodicTimer

    targets = [(Simulator, "run", "sim.engine.run"),
               (Network, "send", "net.network.send"),
               (Network, "send_many", "net.network.send_many")]
    for router in (InprocRouter, ShardRouter):
        for attr in ("route", "deliver_bucket"):
            if attr in vars(router):
                targets.append((router, attr, f"net.router.{attr}"))
    for base, attr, name in ((LatencyModel, "sample", "net.latency.sample"),
                             (LossModel, "is_lost", "net.loss.is_lost")):
        targets.extend((cls, attr, name) for cls in _subclasses(base)
                       if attr in vars(cls))
    saved = [(cls, attr, vars(cls)[attr]) for cls, attr, _ in targets]
    saved.append((PeriodicTimer, "__init__", PeriodicTimer.__init__))
    saved.append((OneShotTimer, "__init__", OneShotTimer.__init__))
    try:
        for cls, attr, name in targets:
            setattr(cls, attr, tracer.wrap(name, vars(cls)[attr]))
        # Callback position after ``self``: (sim, period, callback) and
        # (sim, callback).
        PeriodicTimer.__init__ = _timer_init(tracer, PeriodicTimer.__init__, 2)
        OneShotTimer.__init__ = _timer_init(tracer, OneShotTimer.__init__, 1)
        yield tracer
    finally:
        for cls, attr, original in saved:
            setattr(cls, attr, original)


def wrap_dispatch(tracer: Tracer, nodes: Iterable) -> None:
    """Trace every entry of each node's *live* dispatch table (the
    mapping the network captured by reference at attach time), named by
    payload kind.  Call after the build, co-hosted protocols included."""
    from repro.net.message import kind_name

    for node in nodes:
        table_fn = getattr(node, "dispatch_table", None)
        if table_fn is None:
            continue
        table = table_fn()
        for kind_id, handler in list(table.items()):
            table[kind_id] = tracer.wrap(f"handler:{kind_name(kind_id)}",
                                         handler)


#: Periodic-callback owners reported by name (module path under repro).
TICK_OWNERS = ("core.base", "core.aggregation", "membership.peer_sampling",
               "freeriders.detection")

#: Payload kinds with a handler metric of their own; the rest is "other".
HANDLER_KINDS = ("propose", "request", "serve", "aggregation")


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced repetition."""
    run_total = tracer.total_s("sim.engine.run")
    run_self = tracer.self_s("sim.engine.run")
    out = {
        "sim.engine.self_s": run_self,
        "sim.engine.unattributed_share":
            run_self / run_total if run_total > 0 else 0.0,
        "sim.timers.fires": tracer.count("timer:"),
        "net.network.send_self_s": tracer.self_s("net.network.send"),
        "net.latency.sample_self_s": tracer.self_s("net.latency.sample"),
        "net.latency.samples": tracer.count("net.latency.sample"),
        "net.loss.is_lost_self_s": tracer.self_s("net.loss.is_lost"),
        "net.router.route_self_s": tracer.self_s("net.router.route"),
        "net.router.deliver_self_s":
            tracer.self_s("net.router.deliver_bucket"),
        "net.router.buckets": tracer.count("net.router.deliver_bucket"),
    }
    for owner in TICK_OWNERS:
        out[f"{owner}.tick_self_s"] = tracer.self_s(f"timer:{owner}.")
    other_self = tracer.self_s("handler:")
    other_count = tracer.count("handler:")
    for kind in HANDLER_KINDS:
        # Exact names: "handler:serve" must not swallow a longer kind.
        rows = [entry for name, entry in tracer.spans("handler:")
                if name == f"handler:{kind}"]
        kind_self = sum(entry[2] for entry in rows)
        kind_count = sum(entry[0] for entry in rows)
        out[f"core.handler.{kind}_self_s"] = kind_self
        out[f"core.handler.{kind}_count"] = kind_count
        other_self -= kind_self
        other_count -= kind_count
    out["core.handler.other_self_s"] = other_self
    out["core.handler.other_count"] = other_count
    return out
