"""Evaluation metrics over finished experiment runs.

Each module computes one family of the paper's measurements:

* :mod:`repro.metrics.lag` — stream-lag CDFs and per-class lag summaries
  (Figures 1, 2, 3, 8, 9; Table 3);
* :mod:`repro.metrics.jitter` — jitter-free window fractions and jittered
  delivery ratios (Figures 5, 6, 7; Table 2);
* :mod:`repro.metrics.bandwidth` — per-class uplink utilization (Figure 4);
* :mod:`repro.metrics.windows` — per-window delivery over stream time
  (Figure 10, the churn experiments);
* :mod:`repro.metrics.summary` — the :class:`~repro.metrics.summary.MetricSpec`
  layer: in-worker reductions of a run to the compact, JSON-able values a
  figure actually needs (what lets grid workers return summaries instead
  of whole results);
* :mod:`repro.metrics.report` — ASCII rendering of tables and CDF series.
"""

from repro.metrics.bandwidth import utilization_by_class
from repro.metrics.jitter import (
    jitter_free_fraction_by_class,
    mean_jittered_delivery_by_class,
)
from repro.metrics.lag import (
    jitter_free_node_percentage_by_class,
    lag_cdf_delivery_ratio,
    lag_cdf_jitter_free,
    mean_lag_by_class,
    per_node_lag_delivery_ratio,
    per_node_lag_jitter_free,
    per_node_lag_max_jitter,
)
from repro.metrics.report import ascii_table, cdf_row, format_percent
from repro.metrics.summary import MetricSpec, summarize
from repro.metrics.windows import window_delivery_over_time

__all__ = [
    "MetricSpec",
    "summarize",
    "ascii_table",
    "cdf_row",
    "format_percent",
    "jitter_free_fraction_by_class",
    "jitter_free_node_percentage_by_class",
    "lag_cdf_delivery_ratio",
    "lag_cdf_jitter_free",
    "mean_jittered_delivery_by_class",
    "mean_lag_by_class",
    "per_node_lag_delivery_ratio",
    "per_node_lag_jitter_free",
    "per_node_lag_max_jitter",
    "utilization_by_class",
    "window_delivery_over_time",
]
