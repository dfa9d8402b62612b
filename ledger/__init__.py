"""The performance ledger: named workloads, end-to-end metrics and
per-layer attribution, all measured from outside ``src/repro``.

See ``ledger/README.md`` for the glossary and ``BENCHMARK.json`` for the
declared names, units, directions and bounds.
"""
