"""The shipped rule catalog.

Each submodule registers its rules with
:func:`repro.lint.registry.rule` at import time;
:func:`repro.lint.registry.all_rules` imports them lazily, so this
package has no import-time side effects of its own.

* :mod:`repro.lint.rules.determinism` — D1xx
* :mod:`repro.lint.rules.shard` — S2xx
* :mod:`repro.lint.rules.kinds` — K3xx
* :mod:`repro.lint.rules.hotpath` — P4xx
* :mod:`repro.lint.rules.invariants` — R501
"""
