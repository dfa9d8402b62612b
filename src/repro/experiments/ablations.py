"""Ablation experiments for HEAP's design knobs.

The paper's Section 5 names the levers this module explores:

* the aggregation protocol's accuracy/overhead trade-off;
* retransmission under datagram loss (UDP, "needs further research"
  towards TCP-friendliness);
* biasing neighbor selection towards rich nodes near the source
  ("a natural way to further improve the quality of gossiping");
* capping the adapted fanout (the superpeer concern: "elevate certain
  wealthy nodes to the rank of temporary superpeers").

Each ablation submits its whole parameter grid through
:func:`repro.experiments.gridrun.grid_summaries` in one call (with the
caller's ``**grid`` execution keywords); the
module-level summary functions below run *inside* the workers (they are
picklable and reduce a result to a few JSON-able scalars).
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.analysis.stats import mean
from repro.experiments.gridrun import grid_summaries
from repro.experiments.scales import Scale, current_scale, scenario_at
from repro.experiments.tables import TableResult
from repro.metrics.lag import per_node_lag_jitter_free, spec_lag_jitter_free
from repro.metrics.report import format_percent, format_seconds
from repro.metrics.summary import MetricSpec
from repro.workloads.distributions import MS_691, REF_691


def _mean_lag(result) -> float:
    return mean(per_node_lag_jitter_free(result).values())


def _offline_delivery(result) -> float:
    total = result.total_packets
    return mean(result.log_of(node_id).delivery_ratio(total)
                for node_id in result.receiver_ids())


# ----------------------------------------------------------------------
# in-worker summaries (module-level: they must pickle to pool workers)
# ----------------------------------------------------------------------
def aggregation_summary(result) -> dict:
    """Capability-estimate error, aggregation overhead and stream lag."""
    true_average = result.config.distribution.average_bps()
    errors = [abs(result.nodes[node_id].capability_estimate - true_average)
              / true_average
              for node_id in result.receiver_ids()]
    agg_bytes = result.net.stats.bytes_by_kind.get("aggregation", 0)
    per_node_rate = agg_bytes / result.config.n_nodes / (
        result.config.duration + result.config.drain)
    return {"estimate_error": mean(errors),
            "per_node_rate_bps": per_node_rate,
            "mean_lag": _mean_lag(result)}


def delivery_lag_summary(result) -> dict:
    """Offline delivery ratio plus mean jitter-free lag."""
    return {"offline_delivery": _offline_delivery(result),
            "mean_lag": _mean_lag(result)}


def rich_fanout_summary(result) -> dict:
    """Mean adapted fanout of the rich (3 Mbps) class, plus stream lag."""
    rich_fanouts = [result.nodes[node_id].fanout
                    for node_id in result.receivers_in_class("3Mbps")]
    return {"rich_fanout": mean(rich_fanouts) if rich_fanouts else None,
            "mean_lag": _mean_lag(result)}


SPEC_AGGREGATION = MetricSpec("ablation_aggregation", aggregation_summary)
SPEC_DELIVERY_LAG = MetricSpec("ablation_delivery_lag", delivery_lag_summary)
SPEC_RICH_FANOUT = MetricSpec("ablation_rich_fanout", rich_fanout_summary)


def ablation_aggregation(scale: Scale = None,
                         fanouts: Sequence[int] = (1, 3, 7),
                         fresh_counts: Sequence[int] = (3, 10),
                         **grid) -> TableResult:
    """Aggregation fanout / freshness vs estimate error and stream lag."""
    scale = scale or current_scale()
    points = [(fanout, fresh) for fanout in fanouts for fresh in fresh_counts]
    cells = []
    for fanout, fresh in points:
        config = scenario_at(scale, protocol="heap", distribution=MS_691)
        config = config.with_(gossip=dataclasses.replace(
            config.gossip, aggregation_fanout=fanout,
            aggregation_fresh_count=fresh))
        cells.append((config, (SPEC_AGGREGATION,)))
    rows = []
    for (fanout, fresh), summary in zip(points,
                                        grid_summaries(cells, **grid)):
        values = summary[SPEC_AGGREGATION.name]
        rows.append([f"fanout={fanout}", f"fresh={fresh}",
                     format_percent(100.0 * values["estimate_error"]),
                     f"{values['per_node_rate_bps'] / 1024:.2f} KB/s",
                     format_seconds(values["mean_lag"])])
    return TableResult(
        "Ablation: aggregation",
        "capability-estimate error and overhead vs aggregation parameters "
        "(HEAP, ms-691)",
        rows, ["agg fanout", "fresh samples", "estimate error",
               "agg traffic/node", "mean jitter-free lag"])


def ablation_retransmission(scale: Scale = None,
                            loss_rates: Sequence[float] = (0.0, 0.01, 0.03),
                            **grid) -> TableResult:
    """Retransmission on/off across datagram loss rates."""
    scale = scale or current_scale()
    points = [(loss, retransmission) for loss in loss_rates
              for retransmission in (True, False)]
    cells = []
    for loss, retransmission in points:
        config = scenario_at(scale, protocol="heap", distribution=REF_691,
                             loss_rate=loss)
        config = config.with_(gossip=dataclasses.replace(
            config.gossip, retransmission=retransmission))
        cells.append((config, (SPEC_DELIVERY_LAG,)))
    rows = []
    for (loss, retransmission), summary in zip(
            points, grid_summaries(cells, **grid)):
        values = summary[SPEC_DELIVERY_LAG.name]
        rows.append([f"loss={loss:.0%}",
                     "on" if retransmission else "off",
                     format_percent(100.0 * values["offline_delivery"]),
                     format_seconds(values["mean_lag"])])
    return TableResult(
        "Ablation: retransmission",
        "offline delivery and lag with/without request retransmission "
        "(HEAP, ref-691)",
        rows, ["loss rate", "retransmission", "offline delivery",
               "mean jitter-free lag"])


def ablation_source_bias(scale: Scale = None,
                         biases: Sequence[float] = (0.0, 1.0, 2.0),
                         **grid) -> TableResult:
    """Bias the source's first-hop selection towards rich nodes (§5)."""
    scale = scale or current_scale()
    spec = spec_lag_jitter_free()
    cells = [(scenario_at(scale, protocol="heap", distribution=MS_691,
                          source_bias=bias), (spec,))
             for bias in biases]
    rows = []
    for bias, summary in zip(biases, grid_summaries(cells, **grid)):
        values = summary[spec.name]
        lags = sorted(values)
        median = lags[len(lags) // 2]
        p90 = lags[int(0.9 * len(lags))]
        rows.append([f"bias={bias:g}", format_seconds(median),
                     format_seconds(p90), format_seconds(mean(values))])
    return TableResult(
        "Ablation: source bias",
        "capability-biased first-hop selection at the source (HEAP, ms-691)",
        rows, ["bias exponent", "median lag", "p90 lag", "mean lag"])


def ablation_fanout_cap(scale: Scale = None,
                        caps: Sequence[float] = (0.0, 10.0, 14.0, 21.0),
                        **grid) -> TableResult:
    """Cap the adapted fanout (superpeer-risk knob; 0 = uncapped)."""
    scale = scale or current_scale()
    cells = []
    for cap in caps:
        config = scenario_at(scale, protocol="heap", distribution=MS_691)
        config = config.with_(gossip=dataclasses.replace(
            config.gossip, max_fanout=cap))
        cells.append((config, (SPEC_RICH_FANOUT,)))
    rows = []
    for cap, summary in zip(caps, grid_summaries(cells, **grid)):
        values = summary[SPEC_RICH_FANOUT.name]
        rich = values["rich_fanout"]
        rows.append(["uncapped" if cap == 0 else f"cap={cap:g}",
                     f"{rich:.1f}" if rich is not None else "n/a",
                     format_seconds(values["mean_lag"])])
    return TableResult(
        "Ablation: fanout cap",
        "bounding the adapted fanout of rich nodes (HEAP, ms-691)",
        rows, ["cap", "mean rich-node fanout", "mean jitter-free lag"])
