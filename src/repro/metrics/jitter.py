"""Stream-quality (jitter) metrics.

A window is *jittered* at lag L when fewer than 101 of its 110 packets
arrived within L of publication (Section 3.2).  These functions compute
the per-class jitter-free percentages of Figures 5/6, the per-node jitter
CDF of Figure 7 and the jittered-window delivery ratios of Table 2.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Dict, List

from repro.analysis.stats import mean
from repro.experiments.runner import ExperimentResult
from repro.metrics.summary import MetricSpec
from repro.streaming.player import OFFLINE


def jitter_free_fraction_by_class(result: ExperimentResult,
                                  lag: float) -> Dict[str, float]:
    """class label -> mean % of jitter-free windows at ``lag``
    (Figures 5, 6; the paper uses lag = 10 s)."""
    analyzer = result.analyzer()
    windows = result.windows()
    fractions: Dict[str, float] = {}
    for label in result.class_labels():
        members = result.receivers_in_class(label)
        if not members:
            fractions[label] = math.nan
            continue
        per_node = [100.0 * analyzer.jitter_free_fraction(
            result.log_of(node_id), windows, lag) for node_id in members]
        fractions[label] = mean(per_node)
    return fractions


def jitter_values(result: ExperimentResult,
                  lag: float = OFFLINE) -> List[float]:
    """Per-node experienced jitter percentages at ``lag`` (worker-summary
    form of Figure 7's CDF sample)."""
    analyzer = result.analyzer()
    windows = result.windows()
    return [100.0 * analyzer.jitter_fraction(result.log_of(node_id), windows, lag)
            for node_id in result.receiver_ids()]


def mean_jittered_delivery_by_class(result: ExperimentResult,
                                    lag: float) -> Dict[str, float]:
    """class label -> average delivery ratio (%) inside jittered windows
    (Table 2).  Classes with no jittered windows report 100%."""
    analyzer = result.analyzer()
    windows = result.windows()
    ratios: Dict[str, float] = {}
    for label in result.class_labels():
        members = result.receivers_in_class(label)
        if not members:
            ratios[label] = math.nan
            continue
        per_node = [100.0 * analyzer.mean_jittered_delivery_ratio(
            result.log_of(node_id), windows, lag) for node_id in members]
        ratios[label] = mean(per_node)
    return ratios


# ----------------------------------------------------------------------
# in-worker summary specs (picklable, JSON-able; see repro.metrics.summary)
# ----------------------------------------------------------------------
def spec_jitter_values(lag: float = OFFLINE) -> MetricSpec:
    return MetricSpec(f"jitter_values_{lag:g}",
                      partial(jitter_values, lag=lag))


def spec_jitter_free_fraction_by_class(lag: float) -> MetricSpec:
    return MetricSpec(f"jitter_free_fraction_by_class_{lag:g}",
                      partial(jitter_free_fraction_by_class, lag=lag))


def spec_mean_jittered_delivery_by_class(lag: float) -> MetricSpec:
    return MetricSpec(f"mean_jittered_delivery_by_class_{lag:g}",
                      partial(mean_jittered_delivery_by_class, lag=lag))
