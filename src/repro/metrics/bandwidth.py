"""Bandwidth-usage metrics (Figure 4).

"Average bandwidth usage by bandwidth class": what fraction of its
advertised upload capability each class of nodes actually pushed through
its uplink during the stream.  Under standard gossip the poor classes
saturate (~90 %) while rich ones idle; under HEAP all classes settle at a
similar utilization — the signature of correct load adaptation.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.analysis.stats import mean
from repro.experiments.runner import ExperimentResult
from repro.metrics.summary import MetricSpec


def utilization_by_class(result: ExperimentResult) -> Dict[str, float]:
    """class label -> mean uplink utilization (%) over the stream."""
    usage: Dict[str, float] = {}
    for label in result.class_labels():
        members = result.receivers_in_class(label)
        if not members:
            usage[label] = math.nan
            continue
        usage[label] = mean(100.0 * result.uplink_utilization(node_id)
                            for node_id in members)
    return usage


# ----------------------------------------------------------------------
# in-worker summary specs (picklable, JSON-able; see repro.metrics.summary)
# ----------------------------------------------------------------------
def spec_utilization_by_class() -> MetricSpec:
    return MetricSpec("utilization_by_class", utilization_by_class)
