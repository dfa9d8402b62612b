"""The ``python -m repro lint`` entry point.

Exit codes: 0 = clean, 1 = findings reported, 2 = usage/configuration
error (unknown rule selector, missing path).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.lint.config import (DETERMINISTIC_PREFIXES, HOT_PREFIXES,
                               LintConfig)
from repro.lint.driver import lint_paths
from repro.lint.registry import catalog_lines
from repro.lint.report import RENDERERS


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``lint`` subcommand's arguments (shared with tests)."""
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to analyze "
                             "(default: src/repro)")
    parser.add_argument("--format", choices=sorted(RENDERERS),
                        default="text", help="report format")
    parser.add_argument("--select", default=None, metavar="RULES",
                        help="comma-separated rule ids or prefixes "
                             "(e.g. D101 or D,S2); default: all rules")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog (id + rationale) "
                             "and exit")
    parser.add_argument("--deterministic-modules", default=None,
                        metavar="PREFIXES",
                        help="override the dotted-module prefixes the "
                             "D-rules apply to (comma-separated; '*' "
                             "matches everything; default: "
                             + ",".join(DETERMINISTIC_PREFIXES) + ")")
    parser.add_argument("--hot-modules", default=None, metavar="PREFIXES",
                        help="override the hot-module prefixes P401 "
                             "applies to (comma-separated; '*' matches "
                             "everything; default: "
                             + ",".join(HOT_PREFIXES) + ")")


def _split(value: Optional[str]) -> tuple:
    if value is None:
        return ()
    return tuple(part.strip() for part in value.split(",") if part.strip())


def run_lint(args) -> int:
    """Execute a parsed ``lint`` invocation; returns the exit code."""
    if args.list_rules:
        for line in catalog_lines():
            print(line)
        return 0
    config = LintConfig(
        deterministic_prefixes=(_split(args.deterministic_modules)
                                or DETERMINISTIC_PREFIXES),
        hot_prefixes=_split(args.hot_modules) or HOT_PREFIXES,
        select=_split(args.select),
    )
    try:
        findings, files_checked = lint_paths(args.paths, config)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    RENDERERS[args.format](findings, files_checked, sys.stdout)
    return 1 if findings else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="determinism & shard-safety static analyzer")
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
