"""The per-file visitor driver: walk paths, parse, run rules, suppress.

Every rule receives a shared :class:`FileContext` (parsed tree, import
aliases, config, module identity) and yields findings; the driver
applies ``# repro-lint: disable=...`` suppressions (unless the rule
sets ``suppressible = False``) and collects the survivors.  Files that
fail to parse produce a single ``E999`` finding instead of crashing the
run — a syntax error in the checked tree is a finding, not an analyzer
bug.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.lint.astutil import import_aliases
from repro.lint.config import LintConfig, module_name_for
from repro.lint.findings import Finding
from repro.lint.registry import rules_matching
from repro.lint.suppress import is_suppressed, suppressions_for

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".repro-checkpoints",
              ".hypothesis", ".pytest_cache"}


class FileContext:
    """Everything a rule needs about the file under analysis."""

    __slots__ = ("path", "module", "source", "lines", "tree", "aliases",
                 "config")

    def __init__(self, path: str, module: str, source: str,
                 tree: ast.AST, config: LintConfig):
        self.path = path
        self.module = module
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.aliases = import_aliases(tree)
        self.config = config

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        return Finding(rule=rule_id, path=self.path, line=line, col=col,
                       message=message, text=self.line_text(line))


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into a deterministic .py file sequence."""
    for path in paths:
        if os.path.isdir(path):
            for root, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames
                                     if d not in _SKIP_DIRS)
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        yield os.path.join(root, filename)
        elif path.endswith(".py") or os.path.isfile(path):
            yield path
        else:
            raise FileNotFoundError(path)


def _display_path(path: str) -> str:
    """Paths under the working directory render relative (stable in CI
    logs and baselines); anything else stays as given."""
    try:
        rel = os.path.relpath(path)
    except ValueError:  # different drive on Windows
        return path
    return path if rel.startswith("..") else rel


def lint_file(path: str, config: Optional[LintConfig] = None,
              rules: Optional[List[object]] = None) -> List[Finding]:
    """Run the (selected) rule catalog over one file."""
    config = config if config is not None else LintConfig()
    if rules is None:
        rules = rules_matching(config.select)
    display = _display_path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        raise FileNotFoundError(f"cannot read {path}: {exc}") from exc
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(rule="E999", path=display,
                        line=exc.lineno or 1, col=(exc.offset or 0) + 1,
                        message=f"syntax error: {exc.msg}",
                        text=(exc.text or "").strip())]
    ctx = FileContext(display, module_name_for(path), source, tree, config)
    suppressed: Dict[int, Set[str]] = suppressions_for(source)
    findings: List[Finding] = []
    for rule in rules:
        for finding in rule.check(ctx):
            if not getattr(rule, "suppressible", True) or not is_suppressed(
                    suppressed, finding.line, finding.rule):
                findings.append(finding)
    return findings


def lint_paths(paths: Iterable[str],
               config: Optional[LintConfig] = None
               ) -> Tuple[List[Finding], int]:
    """Lint every .py file under ``paths``.

    Returns ``(findings, files_checked)``; findings come back in
    (path, line, col, rule) order.
    """
    config = config if config is not None else LintConfig()
    rules = rules_matching(config.select)
    findings: List[Finding] = []
    files_checked = 0
    for path in iter_python_files(paths):
        files_checked += 1
        findings.extend(lint_file(path, config, rules))
    findings.sort(key=lambda f: f.sort_key)
    return findings, files_checked
