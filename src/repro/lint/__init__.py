"""``repro lint`` — a determinism & shard-safety static analyzer.

The parity suites *sample* this repo's invariants: golden traces pin
determinism at a handful of seeds, shard parity is checked at one
population size and two shard counts, and payload immutability-once-sent
is a docstring promise.  This package checks the same contracts
*statically*, over every configuration at once:

* **D-rules** — determinism: no wall-clock reads or unseeded randomness
  inside the simulation-facing packages, no ordering-sensitive iteration
  over ``set``/``frozenset``, no ``id()``-based ordering.
* **S-rules** — shard/pickle safety: no lambdas or closure-local
  callables handed to worker pools or ``run_grid``; classes that cross
  the wire are module-level; no payload mutation after a
  ``send``/``send_many`` call (immutability-once-sent).
* **K-rules** — kind registry: every ``register_kind`` call runs at
  import time with a string-literal name, so kind-id tables are
  import-order-identical across fork/spawn workers.
* **P-rules** — hot-path hygiene: ``__slots__`` on classes in the
  configured hot-module list (the PR 1-5 perf work's standing rule).
* **R501** — the tree's declared invariants, one table of text
  patterns with scopes and home files; it cannot be suppressed.

Run it as ``python -m repro lint [paths]``; suppress a finding with a
``# repro-lint: disable=<RULE>`` comment on (or directly above) the
flagged line; grandfather existing findings with ``--baseline FILE``.
"""

from repro.lint.config import LintConfig
from repro.lint.driver import lint_paths
from repro.lint.findings import Finding
from repro.lint.registry import all_rules, rules_matching

__all__ = ["Finding", "LintConfig", "all_rules", "lint_paths",
           "rules_matching"]
