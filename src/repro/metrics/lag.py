"""Stream-lag metrics.

Stream lag is "the difference between the time the stream is produced at
the source and the time it is viewed" (Section 3.2).  For each node we
compute the minimal lag that achieves a playback target (99 % delivery,
jitter-free, or at most X % jittered windows); CDFs of those per-node
lags are the paper's Figures 1, 2, 3 and 9, per-class means its Figure 8
and per-class percentages its Table 3.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Dict, List

from repro.analysis.cdf import Cdf
from repro.analysis.stats import mean
from repro.experiments.runner import ExperimentResult
from repro.metrics.summary import MetricSpec

#: Evaluation lag per distribution name: the paper uses 10 s for the
#: reference distributions and 20 s for the skewed ms-691 in Table 3.
#: Tables 2 and 3 read it.
TABLE_LAGS = {"ref-691": 10.0, "ref-724": 10.0, "ms-691": 20.0}


def per_node_lag_jitter_free(result: ExperimentResult) -> Dict[int, float]:
    """node -> minimal lag for a fully jitter-free stream (inf if never)."""
    analyzer = result.analyzer()
    windows = result.windows()
    return {node_id: analyzer.min_lag_jitter_free(result.log_of(node_id), windows)
            for node_id in result.receiver_ids()}


def per_node_lag_max_jitter(result: ExperimentResult,
                            max_jitter: float) -> Dict[int, float]:
    """node -> minimal lag at which at most ``max_jitter`` of windows jitter."""
    analyzer = result.analyzer()
    windows = result.windows()
    return {node_id: analyzer.min_lag_max_jitter(result.log_of(node_id),
                                                 windows, max_jitter)
            for node_id in result.receiver_ids()}


def per_node_lag_delivery_ratio(result: ExperimentResult,
                                ratio: float = 0.99) -> Dict[int, float]:
    """node -> minimal lag to receive ``ratio`` of all packets on time
    (the '99% delivery' metric of Figures 1 and 2)."""
    analyzer = result.analyzer()
    total = result.total_packets
    return {node_id: analyzer.min_lag_delivery_ratio(result.log_of(node_id),
                                                     total, ratio)
            for node_id in result.receiver_ids()}


def lag_values_jitter_free(result: ExperimentResult) -> List[float]:
    """Per-node jitter-free lags as a plain list (worker-summary form)."""
    return list(per_node_lag_jitter_free(result).values())


def lag_values_max_jitter(result: ExperimentResult,
                          max_jitter: float) -> List[float]:
    return list(per_node_lag_max_jitter(result, max_jitter).values())


def lag_values_delivery_ratio(result: ExperimentResult,
                              ratio: float = 0.99) -> List[float]:
    return list(per_node_lag_delivery_ratio(result, ratio).values())


def lag_cdf_jitter_free(result: ExperimentResult) -> Cdf:
    return Cdf(lag_values_jitter_free(result))


def lag_cdf_delivery_ratio(result: ExperimentResult, ratio: float = 0.99) -> Cdf:
    return Cdf(lag_values_delivery_ratio(result, ratio))


# ----------------------------------------------------------------------
# in-worker summary specs (picklable, JSON-able; see repro.metrics.summary)
# ----------------------------------------------------------------------
def spec_lag_jitter_free() -> MetricSpec:
    """Per-node jitter-free lag values (Figures 8/9's no-jitter curves)."""
    return MetricSpec("lag_jitter_free", lag_values_jitter_free)


def spec_lag_max_jitter(max_jitter: float) -> MetricSpec:
    return MetricSpec(f"lag_max_jitter_{max_jitter:g}",
                      partial(lag_values_max_jitter, max_jitter=max_jitter))


def spec_lag_delivery(ratio: float = 0.99) -> MetricSpec:
    return MetricSpec(f"lag_delivery_{ratio:g}",
                      partial(lag_values_delivery_ratio, ratio=ratio))


def spec_mean_lag_by_class() -> MetricSpec:
    return MetricSpec("mean_lag_by_class", mean_lag_by_class)


def spec_jitter_free_pct_by_class(lag: float) -> MetricSpec:
    return MetricSpec(f"jitter_free_pct_by_class_{lag:g}",
                      partial(jitter_free_node_percentage_by_class, lag=lag))


def mean_lag_by_class(result: ExperimentResult) -> Dict[str, float]:
    """class label -> mean (finite) jitter-free lag (Figure 8)."""
    lags = per_node_lag_jitter_free(result)
    return {label: mean(lags[node_id]
                        for node_id in result.receivers_in_class(label))
            for label in result.class_labels()}


def jitter_free_node_percentage_by_class(result: ExperimentResult,
                                         lag: float) -> Dict[str, float]:
    """class label -> % of the class's nodes with a fully jitter-free
    stream at ``lag`` (Table 3)."""
    lags = per_node_lag_jitter_free(result)
    percentages = {}
    for label in result.class_labels():
        members = result.receivers_in_class(label)
        if not members:
            percentages[label] = math.nan
            continue
        ok = sum(1 for node_id in members if lags[node_id] <= lag)
        percentages[label] = 100.0 * ok / len(members)
    return percentages
