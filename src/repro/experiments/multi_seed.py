"""Multi-seed experiment aggregation.

Single-run numbers from a randomized protocol carry run-to-run noise;
a credible comparison reports mean and dispersion across seeds.
:class:`AggregatedMetric` is that report for one scalar metric —
:meth:`repro.experiments.parallel.GridResult.aggregated_for` builds one
per metric from a scenario's seed records — and the ``metric_*``
functions below are the ready-made (picklable) scalars a grid can ask
for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.stats import mean, stdev
from repro.experiments.runner import ExperimentResult

@dataclass
class AggregatedMetric:
    """Mean and dispersion of one metric across seeds."""

    name: str
    values: List[float]

    @property
    def mean(self) -> float:
        return mean(self.values)

    @property
    def stdev(self) -> float:
        return stdev(self.values)

    @property
    def min(self) -> float:
        # nan, not ValueError, when every seed of a scenario was
        # quarantined by fault supervision (values can then be empty).
        return min(self.values) if self.values else float("nan")

    @property
    def max(self) -> float:
        return max(self.values) if self.values else float("nan")

    def summary(self) -> str:
        return (f"{self.name}: {self.mean:.3f} +- {self.stdev:.3f} "
                f"[{self.min:.3f}, {self.max:.3f}] over {len(self.values)} seeds")


# ----------------------------------------------------------------------
# ready-made metrics
# ----------------------------------------------------------------------
def metric_mean_jitter_free_lag(result: ExperimentResult) -> float:
    from repro.metrics.lag import per_node_lag_jitter_free
    return mean(per_node_lag_jitter_free(result).values())


def metric_offline_delivery(result: ExperimentResult) -> float:
    total = result.total_packets
    return mean(result.log_of(node_id).delivery_ratio(total)
                for node_id in result.receiver_ids())


def metric_jitter_free_10s(result: ExperimentResult) -> float:
    """Jitter-free fraction at the paper's 10 s lag.  Module-level (and
    therefore picklable) for parallel sweeps."""
    from repro.metrics.jitter import jitter_free_fraction_by_class
    return mean(jitter_free_fraction_by_class(result, 10.0).values())


def metric_mean_utilization(result: ExperimentResult) -> float:
    """Mean receiver uplink utilization (Figure 4's quantity)."""
    return mean(result.uplink_utilization(node_id)
                for node_id in result.receiver_ids())
