"""In-worker metric summaries: the data-locality layer of the grid engine.

Shipping a whole ``ExperimentResult`` (every receiver log, every node
object) back from a worker process would cost more than the run itself
at paper scale.  Instead, each figure/table declares *what it actually
needs* from a run — a handful of scalars, the per-node lag values behind
a CDF, a per-class mapping, a per-window series — as :class:`MetricSpec`
values, and the worker reduces its result to exactly those before the
record crosses the process boundary.

Contracts every spec must honour:

* ``fn`` must be **picklable** (a module-level function, or a
  :func:`functools.partial` over one) so it travels to spawn/fork pools;
* the returned value must be **JSON-serializable** (numbers incl.
  inf/nan, strings, lists/tuples, string-keyed dicts) so grid runs can
  checkpoint records to JSONL and resume after a kill;
* the value must be a pure function of the run, so serial and parallel
  executions are byte-identical and checkpointed summaries are coherent.

Spec constructors for the paper's metric families live next to the
metrics themselves (:mod:`repro.metrics.lag`, :mod:`repro.metrics.jitter`,
:mod:`repro.metrics.bandwidth`, :mod:`repro.metrics.windows`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.runner import ExperimentResult

#: A summary reduces one finished run to a compact JSON-able value.
SummaryFn = Callable[["ExperimentResult"], object]


@dataclass(frozen=True)
class MetricSpec:
    """One named in-worker reduction of an ``ExperimentResult``.

    The ``name`` doubles as the dedupe/checkpoint identity of the
    reduction, so it must encode every parameter that changes the value
    (e.g. ``lag_delivery_0.99``, ``jitter_values_10``) — two specs with
    the same name are assumed interchangeable.
    """

    name: str
    fn: SummaryFn

    def __call__(self, result: "ExperimentResult") -> object:
        return self.fn(result)


def summarize(result: "ExperimentResult",
              specs: Iterable[MetricSpec]) -> Dict[str, object]:
    """Apply every spec to ``result``; name -> summary value, in order."""
    return {spec.name: spec.fn(result) for spec in specs}


def standard_bundle() -> Tuple[MetricSpec, ...]:
    """The predeclared spec bundle for the protocol×distribution matrix.

    Every reduction any headline figure derives from a plain
    (protocol, distribution) run: the three lag families, per-class
    means/utilization/quality, and the two jitter CDF sample sets — one
    summary of a run that parity and golden checks compare whole.

    Constructors are imported lazily: the metric modules import
    :class:`MetricSpec` from here at module load.
    """
    from repro.metrics.bandwidth import spec_utilization_by_class
    from repro.metrics.jitter import (spec_jitter_free_fraction_by_class,
                                      spec_jitter_values)
    from repro.metrics.lag import (spec_lag_delivery, spec_lag_jitter_free,
                                   spec_lag_max_jitter,
                                   spec_mean_lag_by_class)
    from repro.streaming.player import OFFLINE

    return (
        spec_lag_delivery(0.99),
        spec_lag_jitter_free(),
        spec_lag_max_jitter(0.01),
        spec_mean_lag_by_class(),
        spec_utilization_by_class(),
        spec_jitter_free_fraction_by_class(10.0),
        spec_jitter_values(10.0),
        spec_jitter_values(OFFLINE),
    )
