"""The rule registry.

A rule is a class with ``id``, ``name`` and ``rationale`` attributes and
a ``check(ctx)`` generator yielding :class:`~repro.lint.findings.Finding`
objects.  Rule modules register themselves at import time through the
:func:`rule` decorator; :func:`all_rules` imports the catalog packages
on first use so the registry is complete without callers having to know
the module layout.
"""

from __future__ import annotations

import importlib
from typing import Dict, Iterable, List, Sequence

#: Modules that define the shipped rule catalog (imported lazily).
_CATALOG_MODULES = (
    "repro.lint.rules.determinism",
    "repro.lint.rules.shard",
    "repro.lint.rules.kinds",
    "repro.lint.rules.hotpath",
    "repro.lint.rules.invariants",
)

_RULES: Dict[str, object] = {}
_catalog_loaded = False


def rule(cls):
    """Class decorator: instantiate and register a rule under its id."""
    instance = cls()
    rule_id = instance.id
    if rule_id in _RULES:
        raise ValueError(f"lint rule {rule_id!r} registered twice")
    _RULES[rule_id] = instance
    return cls


def _load_catalog() -> None:
    global _catalog_loaded
    if _catalog_loaded:
        return
    _catalog_loaded = True
    for module in _CATALOG_MODULES:
        importlib.import_module(module)


def all_rules() -> List[object]:
    """Every registered rule, ordered by id."""
    _load_catalog()
    return [_RULES[rule_id] for rule_id in sorted(_RULES)]


def rules_matching(select: Sequence[str]) -> List[object]:
    """Rules whose id matches any selector (exact id or id prefix).

    An empty ``select`` means all rules.  Raises :class:`ValueError` for
    a selector that matches nothing — a typo'd ``--select D11`` silently
    checking nothing would be worse than failing.
    """
    rules = all_rules()
    if not select:
        return rules
    chosen: List[object] = []
    for token in select:
        matched = [r for r in rules if r.id == token
                   or r.id.startswith(token)]
        if not matched:
            known = ", ".join(r.id for r in rules)
            raise ValueError(f"--select {token!r} matches no rule "
                             f"(known: {known})")
        for r in matched:
            if r not in chosen:
                chosen.append(r)
    return sorted(chosen, key=lambda r: r.id)


def catalog_lines() -> Iterable[str]:
    """``--list-rules`` output: one ``ID<tab>rationale`` row per rule."""
    for r in all_rules():
        yield f"{r.id}  {r.name}: {r.rationale}"
