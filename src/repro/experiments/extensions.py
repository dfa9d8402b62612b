"""Extension experiments beyond the paper's headline evaluation.

These exercise the forward-looking pieces the paper sketches:

* **freeriders** (§5): quality impact of freeriding and the accuracy of
  the gossip audit, for both attack variants;
* **decentralized membership**: HEAP on Cyclon partial views instead of
  full membership — the paper's protocols only assume a uniform sampler;
* **capability discovery** (§2.2): slow-start advertised capabilities
  instead of configured ones;
* **size estimation**: the ``ln(n)+c`` fanout rule fed by the push-pull
  size estimator instead of a known n.

The first three are plans in the sense of :mod:`repro.experiments.gridrun`;
size estimation drives its own small simulation and runs no grid.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from repro.analysis.stats import mean
from repro.experiments.gridrun import Plan
from repro.experiments.scales import Scale, current_scale, scenario_at
from repro.experiments.tables import TableResult
from repro.freeriders.analysis import (
    convictions,
    detection_accuracy,
    honest_vs_freerider_contribution,
)
from repro.metrics.jitter import (jitter_free_fraction_by_class,
                                  spec_jitter_free_fraction_by_class)
from repro.metrics.lag import per_node_lag_jitter_free, spec_lag_jitter_free
from repro.metrics.report import format_percent, format_seconds
from repro.metrics.summary import MetricSpec
from repro.workloads.distributions import MS_691, REF_691


# ----------------------------------------------------------------------
# in-worker summaries (module-level: they must pickle to pool workers)
# ----------------------------------------------------------------------
def freerider_summary(result) -> dict:
    """Honest quality and stream lag; with planted freeriders, the
    audit's accuracy and the freerider/honest contribution split."""
    quality = jitter_free_fraction_by_class(result, 10.0)
    summary = {"honest_quality": mean(quality.values()),
               "mean_lag": mean(per_node_lag_jitter_free(result).values())}
    if result.config.adversary is not None:
        accuracy = detection_accuracy(result, convictions(result))
        gap = honest_vs_freerider_contribution(result)
        summary.update(precision=accuracy.precision, recall=accuracy.recall,
                       freeriders=gap["freeriders"], honest=gap["honest"])
    return summary


def capability_gap(result) -> float:
    """Mean advertised/true capability over the receivers at the end."""
    return mean(result.nodes[node_id].capability_bps
                / result.capacity_of(node_id)
                for node_id in result.receiver_ids())


SPEC_FREERIDERS = MetricSpec("ext_freeriders", freerider_summary)
SPEC_CAPABILITY_GAP = MetricSpec("ext_capability_gap", capability_gap)


def ext_freeriders(scale: Scale = None,
                   fractions: Sequence[float] = (0.0, 0.1, 0.3)) -> Plan:
    """Freerider impact and detection, by fraction and mode."""
    from repro.adversary import AttackMix

    scale = scale or current_scale()
    params = {"nonserve": 0.2, "underclaim": 0.1}
    # Underclaim at 0 is identical to the nonserve fraction-0 row.
    points = [(mode, fraction) for mode in params for fraction in fractions
              if fraction > 0.0 or mode == "nonserve"]
    cells = [(scenario_at(scale, protocol="heap", distribution=REF_691,
                          adversary=(AttackMix.single(mode, fraction,
                                                      params[mode])
                                     if fraction > 0 else None),
                          audit=True), (SPEC_FREERIDERS,))
             for mode, fraction in points]
    summaries = yield cells
    rows = []
    for (mode, fraction), summary in zip(points, summaries):
        values = summary[SPEC_FREERIDERS.name]
        if fraction > 0:
            detection = (f"P={values['precision']:.2f} "
                         f"R={values['recall']:.2f}")
            contribution = (f"{values['freeriders']:.2f}/"
                            f"{values['honest']:.2f}")
        else:
            detection = "-"
            contribution = "-"
        rows.append([mode, f"{fraction:.0%}",
                     format_percent(values["honest_quality"]),
                     format_seconds(values["mean_lag"]),
                     detection, contribution])
    return TableResult(
        "Extension: freeriders",
        "freeriding impact and gossip-audit accuracy (HEAP, ref-691; "
        "contribution column: freerider/honest served-to-consumed index)",
        rows, ["mode", "fraction", "jitter-free@10s", "mean lag",
               "detection", "contribution"])


def ext_membership(scale: Scale = None) -> Plan:
    """Full membership vs Cyclon partial views."""
    scale = scale or current_scale()
    lag_spec = spec_lag_jitter_free()
    points = [(membership, protocol)
              for membership in ("directory", "cyclon")
              for protocol in ("standard", "heap")]
    cells = [(scenario_at(scale, protocol=protocol, distribution=REF_691,
                          membership=membership), (lag_spec,))
             for membership, protocol in points]
    summaries = yield cells
    rows = []
    for (membership, protocol), summary in zip(points, summaries):
        lags = summary[lag_spec.name]
        reached = sum(1 for lag in lags if math.isfinite(lag))
        rows.append([membership, protocol, f"{reached}/{len(lags)}",
                     format_seconds(mean(lags))])
    return TableResult(
        "Extension: membership",
        "full-membership directory vs Cyclon partial views (ref-691)",
        rows, ["membership", "protocol", "nodes reached (jitter-free)",
               "mean lag"])


def ext_capability_discovery(scale: Scale = None) -> Plan:
    """Configured capabilities vs join-time slow-start discovery."""
    scale = scale or current_scale()
    quality_spec = spec_jitter_free_fraction_by_class(10.0)
    lag_spec = spec_lag_jitter_free()
    discoveries = (False, True)
    cells = [(scenario_at(scale, protocol="heap", distribution=MS_691,
                          capability_discovery=discovery),
              (quality_spec, lag_spec, SPEC_CAPABILITY_GAP))
             for discovery in discoveries]
    summaries = yield cells
    rows = []
    for discovery, summary in zip(discoveries, summaries):
        rows.append(["discovery" if discovery else "configured",
                     format_percent(mean(summary[quality_spec.name].values())),
                     format_seconds(mean(summary[lag_spec.name])),
                     f"{summary[SPEC_CAPABILITY_GAP.name]:.2f}"])
    return TableResult(
        "Extension: capability discovery",
        "slow-start capability discovery vs configured capabilities "
        "(HEAP, ms-691; last column: advertised/true capability at end)",
        rows, ["capabilities", "jitter-free@10s", "mean lag",
               "advertised/true"])


def ext_size_estimation(populations: Sequence[int] = (30, 80, 200),
                        seed: int = 17) -> TableResult:
    """Accuracy of the push-pull size estimator across populations."""
    from repro.core.size_estimation import SizeEstimator
    from repro.membership.directory import MembershipDirectory
    from repro.net.latency import ConstantLatency
    from repro.net.network import Network
    from repro.sim.engine import Simulator

    rows = []
    for n in populations:
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.02))
        directory = MembershipDirectory(sim, random.Random(seed),
                                        mean_detection_delay=0.0)
        directory.register_all(range(n))
        estimators = []
        for node_id in range(n):
            estimator = SizeEstimator(sim, net, node_id,
                                      directory.view_of(node_id),
                                      random.Random(seed * 271 + node_id),
                                      is_leader=(node_id == 0),
                                      rounds_per_epoch=40)
            # The estimator is an endpoint itself: the network captures
            # its kind-id dispatch table directly.
            net.attach(node_id, estimator, 10e6)
            estimators.append(estimator)
        for estimator in estimators:
            estimator.start()
        sim.run(until=30.0)
        estimates = [e.estimate() for e in estimators
                     if e.estimate() is not None]
        fanouts = [e.fanout_for_estimate() for e in estimators]
        rows.append([str(n),
                     f"{mean(estimates):.1f}" if estimates else "n/a",
                     format_percent(100.0 * mean(
                         abs(est - n) / n for est in estimates))
                     if estimates else "n/a",
                     f"{mean(fanouts):.2f}"])
    return TableResult(
        "Extension: size estimation",
        "push-pull averaging size estimator: mean estimate, error and the "
        "ln(n)+c fanout it implies",
        rows, ["true n", "mean estimate", "mean error", "implied fanout"])
