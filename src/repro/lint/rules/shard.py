"""S-rules: what may cross a process boundary, and what may not change.

Sharded and pooled execution pickle work across fork/spawn workers.
Lambdas and closure-local callables don't pickle (or worse, deadlock a
pool under spawn); classes reconstructed on the far side must be
importable at module scope; and a payload handed to ``send``/
``send_many`` may be retained by the fabric until the next window
barrier, so mutating it afterwards corrupts datagrams in flight.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.lint.astutil import ScopedVisitor, dotted_parts
from repro.lint.findings import Finding
from repro.lint.registry import rule

#: Call targets that ship callables to worker processes.
_SINK_FUNCTIONS = {"run_grid"}
#: Method names that ship callables to worker processes.
_SINK_METHODS = {"submit", "apply_async", "map", "map_async", "imap",
                 "imap_unordered", "starmap", "starmap_async"}
#: Constructors whose keyword arguments cross the process boundary.
_SINK_CONSTRUCTOR_KEYWORDS = {
    "Process": ("target",),
    # repro.faults.supervise: the only place Process(target=...) is built.
    "Supervisor": ("target",),
    "Pool": ("initializer",),
    "ProcessPoolExecutor": ("initializer",),
}
#: Sink keywords that, by the sink's documented contract, never leave
#: the coordinator process: run_grid invokes ``progress`` after each
#: finished cell.
_SINK_KEYWORD_LOCAL = {
    "run_grid": {"progress"},
}


def _lambda_in(node: ast.AST) -> ast.Lambda:
    for child in ast.walk(node):
        if isinstance(child, ast.Lambda):
            return child
    return None


class _PoolSinkVisitor(ScopedVisitor):
    def __init__(self, ctx, rule_id: str):
        super().__init__()
        self.ctx = ctx
        self.rule_id = rule_id
        self.findings: List[Finding] = []
        #: Names bound by a def nested inside an enclosing function.
        self.local_defs: List[Set[str]] = []

    def _visit_function(self, node):
        if self.function_stack and hasattr(node, "name"):
            self.local_defs[-1].add(node.name)
        self.local_defs.append(set())
        self.function_stack.append(node)
        try:
            self.generic_visit(node)
        finally:
            self.function_stack.pop()
            self.local_defs.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function
    visit_Lambda = _visit_function

    def _is_closure_local(self, name: str) -> bool:
        return any(name in frame for frame in self.local_defs)

    def _flag_arg(self, call: ast.Call, arg: ast.AST, sink: str) -> None:
        offender = _lambda_in(arg)
        if offender is not None:
            self.findings.append(self.ctx.finding(
                self.rule_id, offender,
                f"lambda passed into {sink} cannot be pickled to a "
                f"worker process; use a module-level function"))
            return
        if isinstance(arg, ast.Name) and self._is_closure_local(arg.id):
            self.findings.append(self.ctx.finding(
                self.rule_id, arg,
                f"{arg.id!r} is defined inside an enclosing function; "
                f"callables shipped through {sink} must be module-level "
                f"(closures don't survive pickling to fork/spawn "
                f"workers)"))

    def visit_Call(self, node: ast.Call) -> None:
        parts = dotted_parts(node.func)
        if parts is not None:
            name = parts[-1]
            is_sink = ((len(parts) == 1 and name in _SINK_FUNCTIONS)
                       or (len(parts) > 1 and (name in _SINK_METHODS
                                               or name in _SINK_FUNCTIONS)))
            if is_sink:
                sink = ".".join(parts)
                local_keywords = _SINK_KEYWORD_LOCAL.get(name, ())
                for arg in node.args:
                    self._flag_arg(node, arg, sink)
                for keyword in node.keywords:
                    if keyword.arg in local_keywords:
                        continue
                    self._flag_arg(node, keyword.value, sink)
            elif name in _SINK_CONSTRUCTOR_KEYWORDS:
                wanted = _SINK_CONSTRUCTOR_KEYWORDS[name]
                for keyword in node.keywords:
                    if keyword.arg in wanted:
                        self._flag_arg(node, keyword.value,
                                       f"{name}({keyword.arg}=...)")
        self.generic_visit(node)


@rule
class PoolCallableRule:
    id = "S201"
    name = "picklable-pool-callables"
    rationale = ("lambdas/closure-local callables handed to pools or "
                 "run_grid fail to pickle under spawn (or deadlock the "
                 "pool); grid work must be module-level functions")

    def check(self, ctx) -> Iterator[Finding]:
        visitor = _PoolSinkVisitor(ctx, self.id)
        visitor.visit(ctx.tree)
        yield from visitor.findings


class _WireClassVisitor(ScopedVisitor):
    def __init__(self, ctx, rule_id: str):
        super().__init__()
        self.ctx = ctx
        self.rule_id = rule_id
        self.findings: List[Finding] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.function_stack and self._is_wire_class(node):
            self.findings.append(self.ctx.finding(
                self.rule_id, node,
                f"payload class {node.name!r} is defined inside a "
                f"function; classes crossing the shard wire must be "
                f"module-level so pickle can re-import them in workers"))
        self.class_stack.append(node)
        try:
            self.generic_visit(node)
        finally:
            self.class_stack.pop()

    @staticmethod
    def _is_wire_class(node: ast.ClassDef) -> bool:
        assigned: Set[str] = set()
        registers = False
        for stmt in node.body:
            targets: List[ast.AST] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
                value = stmt.value
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    assigned.add(target.id)
            if isinstance(value, ast.Call):
                parts = dotted_parts(value.func)
                if parts is not None and parts[-1] in (
                        "register_kind", "intern_kind"):
                    registers = True
        return registers or {"kind", "kind_id"} <= assigned


@rule
class WireClassModuleLevelRule:
    id = "S202"
    name = "wire-classes-module-level"
    rationale = ("a payload class defined inside a function cannot be "
                 "re-imported by pickle in shard workers, and its "
                 "register_kind call would run per-invocation, skewing "
                 "kind-id tables")

    def check(self, ctx) -> Iterator[Finding]:
        visitor = _WireClassVisitor(ctx, self.id)
        visitor.visit(ctx.tree)
        yield from visitor.findings


class _SendMutationVisitor(ScopedVisitor):
    """Per function body: names sent as payloads, then mutated later.

    Statement order is approximated by line numbers, which is exact for
    straight-line code and conservative-enough for loops (a mutation
    textually after a send in the same loop body is still a hazard: the
    next iteration's send may overlap the previous payload's window).
    """

    def __init__(self, ctx, rule_id: str):
        super().__init__()
        self.ctx = ctx
        self.rule_id = rule_id
        self.findings: List[Finding] = []
        #: Per enclosing function: payload name -> first send line.
        self.sent: List[Dict[str, int]] = []

    def _visit_function(self, node):
        self.sent.append({})
        self.function_stack.append(node)
        try:
            self.generic_visit(node)
        finally:
            self.function_stack.pop()
            self.sent.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function
    visit_Lambda = _visit_function

    def visit_Call(self, node: ast.Call) -> None:
        if self.sent and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("send", "send_many"):
            payload = None
            if len(node.args) >= 3:
                payload = node.args[2]
            else:
                for keyword in node.keywords:
                    if keyword.arg == "payload":
                        payload = keyword.value
            if isinstance(payload, ast.Name):
                self.sent[-1].setdefault(payload.id, node.lineno)
        self.generic_visit(node)

    def _check_target(self, node: ast.AST, target: ast.AST) -> None:
        if not self.sent:
            return
        if isinstance(target, ast.Attribute) \
                and isinstance(target.value, ast.Name):
            name = target.value.id
            sent_line = self.sent[-1].get(name)
            if sent_line is not None and node.lineno > sent_line:
                self.findings.append(self.ctx.finding(
                    self.rule_id, node,
                    f"attribute write on {name!r} after it was handed "
                    f"to send/send_many at line {sent_line}; payloads "
                    f"are immutable once sent (the fabric may hold them "
                    f"until the next window barrier)"))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(node, target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node, node.target)
        self.generic_visit(node)


@rule
class PayloadMutationRule:
    id = "S203"
    name = "no-mutation-after-send"
    rationale = ("the fabric retains sent payloads (multicast shares one "
                 "object; a shard router holds it until the window "
                 "barrier) — mutating after send corrupts datagrams "
                 "still in flight")

    def check(self, ctx) -> Iterator[Finding]:
        visitor = _SendMutationVisitor(ctx, self.id)
        visitor.visit(ctx.tree)
        yield from visitor.findings
