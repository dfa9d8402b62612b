"""Per-figure experiment definitions.

Each ``figN_*`` function plans the scenarios behind the corresponding
figure of the paper's evaluation and builds a result object whose
``render()`` produces the same rows/series the figure plots, as an ASCII
table.  Every one is a plan in the sense of
:mod:`repro.experiments.gridrun`: it yields its cells, each naming the
``MetricSpec`` reductions it reads, and
:func:`~repro.experiments.gridrun.run_plans` (or
:func:`repro.experiments.artifacts.render`) runs them.

Lag CDFs follow the paper's two criteria:

* Figures 1-3: minimal lag to receive >= 99 % of all stream packets;
* Figure 9: minimal lag for a jitter-free (or <= 1 % jittered) stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.analysis.cdf import Cdf
from repro.experiments.gridrun import Plan
from repro.experiments.scales import Scale, current_scale, scenario_at
from repro.metrics.bandwidth import spec_utilization_by_class
from repro.metrics.jitter import spec_jitter_free_fraction_by_class, spec_jitter_values
from repro.metrics.lag import (
    spec_lag_delivery,
    spec_lag_jitter_free,
    spec_lag_max_jitter,
    spec_mean_lag_by_class,
)
from repro.metrics.report import ascii_table, cdf_row, format_percent, format_seconds
from repro.metrics.windows import spec_window_delivery
from repro.streaming.player import OFFLINE
from repro.workloads.churn import CatastrophicFailure
from repro.workloads.distributions import (
    MS_691,
    REF_691,
    REF_724,
    UNCONSTRAINED,
    UNIFORM_691,
)

#: Lag values (seconds) at which CDF tables are sampled.
LAG_GRID = (1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 30.0, 45.0, 60.0)
#: Jitter percentages at which Figure 7's CDF is sampled.
JITTER_GRID = (0.0, 1.0, 5.0, 10.0, 20.0, 50.0, 90.0)


@dataclass
class FigureResult:
    """A rendered figure: named CDF/series rows plus the ASCII table."""

    figure: str
    description: str
    rows: List[Sequence[str]]
    headers: Sequence[str]
    extra: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        title = f"[{self.figure}] {self.description}"
        return ascii_table(self.headers, self.rows, title=title)


def _lag_headers() -> List[str]:
    return ["series"] + [f"<={int(x)}s" for x in LAG_GRID]


# ----------------------------------------------------------------------
# Figure 1 — unconstrained uplinks, standard gossip, fanout 7
# ----------------------------------------------------------------------
def fig1_unconstrained(scale: Scale = None) -> Plan:
    scale = scale or current_scale()
    config = scenario_at(scale, protocol="standard", distribution=UNCONSTRAINED)
    spec = spec_lag_delivery(0.99)
    (summary,) = yield [(config, (spec,))]
    cdf = Cdf(summary[spec.name])
    rows = [cdf_row("standard f=7, unconstrained, 99% delivery", cdf, LAG_GRID)]
    percentiles = {q: cdf.percentile(q) for q in (0.5, 0.75, 0.9)}
    return FigureResult(
        "Fig 1", "percentage of nodes receiving >=99% of the stream vs lag "
        "(unconstrained uplinks)", rows, _lag_headers(),
        extra={"cdf": cdf, "percentiles": percentiles})


# ----------------------------------------------------------------------
# Figure 2 — fanout sweep on dist1 (ms-691) and dist2 (uniform-691)
# ----------------------------------------------------------------------
def fig2_fanout_sweep(scale: Scale = None,
                      fanouts_dist1: Sequence[float] = (7, 15, 20, 25, 30),
                      fanouts_dist2: Sequence[float] = (7, 15, 20)) -> Plan:
    # Eight runs: default to the reduced sweep population unless the
    # caller pins a scale explicitly.
    if scale is None:
        from repro.experiments.scales import SWEEP
        scale = SWEEP if current_scale().name == "default" else current_scale()
    spec = spec_lag_delivery(0.99)
    cells = []
    labels = []
    for dist, fanouts in ((MS_691, fanouts_dist1), (UNIFORM_691, fanouts_dist2)):
        for fanout in fanouts:
            config = scenario_at(scale, protocol="standard", distribution=dist)
            config = config.with_(gossip=config.gossip.__class__(fanout=float(fanout)))
            cells.append((config, (spec,)))
            labels.append(f"f={int(fanout)} {'dist1' if dist is MS_691 else 'dist2'}")
    summaries = yield cells
    rows = []
    cdfs: Dict[str, Cdf] = {}
    for label, summary in zip(labels, summaries):
        cdf = Cdf(summary[spec.name])
        cdfs[label] = cdf
        rows.append(cdf_row(label, cdf, LAG_GRID))
    return FigureResult(
        "Fig 2", "fanout sweep under constrained heterogeneous uplinks "
        "(dist1 = ms-691, dist2 = uniform-691; same 691 kbps average)",
        rows, _lag_headers(), extra={"cdfs": cdfs})


# ----------------------------------------------------------------------
# Figure 3 — HEAP on dist1
# ----------------------------------------------------------------------
def fig3_heap_dist1(scale: Scale = None) -> Plan:
    scale = scale or current_scale()
    spec = spec_lag_delivery(0.99)
    heap, std = yield [
        (scenario_at(scale, protocol="heap", distribution=MS_691), (spec,)),
        (scenario_at(scale, protocol="standard", distribution=MS_691), (spec,)),
    ]
    cdf = Cdf(heap[spec.name])
    std_cdf = Cdf(std[spec.name])
    rows = [cdf_row("HEAP avg f=7, dist1, 99% delivery", cdf, LAG_GRID),
            cdf_row("standard f=7, dist1 (Fig 2 reference)", std_cdf, LAG_GRID)]
    percentiles = {q: cdf.percentile(q) for q in (0.5, 0.75, 0.9)}
    return FigureResult(
        "Fig 3", "HEAP on the skewed dist1: lag CDF at 99% delivery",
        rows, _lag_headers(), extra={"cdf": cdf, "percentiles": percentiles})


# ----------------------------------------------------------------------
# Figure 4 — bandwidth usage by class
# ----------------------------------------------------------------------
def fig4_bandwidth_usage(scale: Scale = None) -> Plan:
    scale = scale or current_scale()
    spec = spec_utilization_by_class()
    panels = [(dist, sub, protocol)
              for dist, sub in ((REF_691, "4a"), (MS_691, "4b"))
              for protocol in ("standard", "heap")]
    cells = [(scenario_at(scale, protocol=protocol, distribution=dist), (spec,))
             for dist, sub, protocol in panels]
    summaries = yield cells
    rows = []
    usage: Dict[Tuple[str, str], Dict[str, float]] = {}
    for (dist, sub, protocol), summary in zip(panels, summaries):
        util = summary[spec.name]
        usage[(sub, protocol)] = util
        for label, value in util.items():
            rows.append([sub, dist.name, protocol, label,
                         format_percent(value)])
    return FigureResult(
        "Fig 4", "average bandwidth usage by bandwidth class",
        rows, ["panel", "distribution", "protocol", "class", "usage"],
        extra={"usage": usage})


# ----------------------------------------------------------------------
# Figures 5 and 6 — jitter-free window percentage by class (10 s lag)
# ----------------------------------------------------------------------
def _quality_cells(dist, scale: Scale, lag: float):
    """(cells, spec) for one distribution's standard-vs-heap comparison."""
    spec = spec_jitter_free_fraction_by_class(lag)
    cells = [(scenario_at(scale, protocol=protocol, distribution=dist), (spec,))
             for protocol in ("standard", "heap")]
    return cells, spec


def _quality_rows(dist, summaries, spec):
    rows = []
    data = {}
    for protocol, summary in zip(("standard", "heap"), summaries):
        fractions = summary[spec.name]
        data[protocol] = fractions
        for label, value in fractions.items():
            rows.append([dist.name, protocol, label, format_percent(value)])
    return rows, data


def fig5_quality_ref691(scale: Scale = None, lag: float = 10.0) -> Plan:
    scale = scale or current_scale()
    cells, spec = _quality_cells(REF_691, scale, lag)
    rows, data = _quality_rows(REF_691, (yield cells), spec)
    return FigureResult(
        "Fig 5", f"jitter-free percentage of the stream by class (ref-691, "
        f"{lag:.0f}s lag)", rows,
        ["distribution", "protocol", "class", "jitter-free windows"],
        extra={"data": data})


def fig6_quality_classes(scale: Scale = None, lag: float = 10.0) -> Plan:
    scale = scale or current_scale()
    cells_a, spec = _quality_cells(MS_691, scale, lag)
    cells_b, _ = _quality_cells(REF_724, scale, lag)
    summaries = yield cells_a + cells_b
    rows_a, data_a = _quality_rows(MS_691, summaries[:2], spec)
    rows_b, data_b = _quality_rows(REF_724, summaries[2:], spec)
    return FigureResult(
        "Fig 6", f"jitter-free percentage by class (6a: ms-691, 6b: ref-724; "
        f"{lag:.0f}s lag)", rows_a + rows_b,
        ["distribution", "protocol", "class", "jitter-free windows"],
        extra={"ms-691": data_a, "ref-724": data_b})


# ----------------------------------------------------------------------
# Figure 7 — CDF of experienced jitter (ref-691)
# ----------------------------------------------------------------------
def fig7_jitter_cdf(scale: Scale = None, lag: float = 10.0) -> Plan:
    scale = scale or current_scale()
    lag_spec = spec_jitter_values(lag)
    offline_spec = spec_jitter_values(OFFLINE)
    cells = [(scenario_at(scale, protocol=protocol, distribution=REF_691),
              (lag_spec, offline_spec))
             for protocol in ("standard", "heap")]
    summaries = yield cells
    rows = []
    cdfs = {}
    for protocol, summary in zip(("standard", "heap"), summaries):
        for mode, spec in ((f"{lag:.0f}s lag", lag_spec),
                           ("offline", offline_spec)):
            cdf = Cdf(summary[spec.name])
            label = f"{protocol} - {mode}"
            cdfs[label] = cdf
            rows.append(cdf_row(label, cdf, JITTER_GRID))
    headers = ["series"] + [f"<={int(x)}% jitter" for x in JITTER_GRID]
    return FigureResult(
        "Fig 7", "cumulative distribution of nodes vs experienced jitter "
        "(ref-691)", rows, headers, extra={"cdfs": cdfs})


# ----------------------------------------------------------------------
# Figure 8 — average lag for a jitter-free stream by class
# ----------------------------------------------------------------------
def fig8_lag_by_class(scale: Scale = None) -> Plan:
    scale = scale or current_scale()
    spec = spec_mean_lag_by_class()
    panels = [(dist, sub, protocol)
              for dist, sub in ((REF_691, "8a"), (MS_691, "8b"))
              for protocol in ("standard", "heap")]
    cells = [(scenario_at(scale, protocol=protocol, distribution=dist), (spec,))
             for dist, sub, protocol in panels]
    summaries = yield cells
    rows = []
    data = {}
    for (dist, sub, protocol), summary in zip(panels, summaries):
        means = summary[spec.name]
        data[(sub, protocol)] = means
        for label, value in means.items():
            rows.append([sub, dist.name, protocol, label,
                         format_seconds(value)])
    return FigureResult(
        "Fig 8", "average stream lag to obtain a jitter-free stream, by class",
        rows, ["panel", "distribution", "protocol", "class", "mean lag"],
        extra={"data": data})


# ----------------------------------------------------------------------
# Figure 9 — lag CDFs, no-jitter and max-1%-jitter
# ----------------------------------------------------------------------
def fig9_lag_cdf(scale: Scale = None) -> Plan:
    scale = scale or current_scale()
    free_spec = spec_lag_jitter_free()
    jitter_spec = spec_lag_max_jitter(0.01)
    panels = [(dist, sub, protocol)
              for dist, sub in ((REF_691, "9a"), (MS_691, "9b"))
              for protocol in ("standard", "heap")]
    cells = [(scenario_at(scale, protocol=protocol, distribution=dist),
              (free_spec, jitter_spec))
             for dist, sub, protocol in panels]
    summaries = yield cells
    rows = []
    cdfs = {}
    for (dist, sub, protocol), summary in zip(panels, summaries):
        for mode, spec in (("no jitter", free_spec),
                           ("max 1% jitter", jitter_spec)):
            cdf = Cdf(summary[spec.name])
            label = f"{sub} {protocol} - {mode}"
            cdfs[label] = cdf
            rows.append(cdf_row(label, cdf, LAG_GRID))
    return FigureResult(
        "Fig 9", "cumulative distribution of nodes vs stream lag "
        "(9a: ref-691, 9b: ms-691)", rows, _lag_headers(), extra={"cdfs": cdfs})


# ----------------------------------------------------------------------
# Figure 10 — catastrophic failures
# ----------------------------------------------------------------------
def fig10_churn(scale: Scale = None, fraction: float = 0.2,
                failure_time: float = None) -> Plan:
    """One churn panel (10a: fraction=0.2, 10b: fraction=0.5).

    The failure fires at 1/3 of the stream (t=60 s of 180 s in the paper),
    scaled to the configured duration unless ``failure_time`` is given.
    """
    scale = scale or current_scale()
    # Churn needs stream both well before and well after the failure
    # (detection alone takes ~10 s), so enforce a minimum duration.
    duration = max(scale.duration, 45.0)
    base = scenario_at(scale, protocol="heap")
    at_time = (failure_time if failure_time is not None
               else base.stream_start + duration / 3.0)

    # One run per protocol computes every lag series that protocol's
    # curves need (the two standard-gossip lags share a run: the series
    # are pure reductions of the same deterministic receiver logs).
    wanted = (("heap", 12.0), ("standard", 20.0), ("standard", 30.0))
    specs_by_protocol: Dict[str, List] = {}
    for protocol, lag in wanted:
        specs_by_protocol.setdefault(protocol, []).append(
            spec_window_delivery(lag))
    cells = []
    for protocol, specs in specs_by_protocol.items():
        config = scenario_at(
            scale, protocol=protocol, distribution=REF_691, duration=duration,
            churn=CatastrophicFailure(fraction=fraction, at_time=at_time))
        cells.append((config, tuple(specs)))
    by_protocol = dict(zip(specs_by_protocol, (yield cells)))

    rows = []
    series_by_label = {}
    for protocol, lag in wanted:
        series = by_protocol[protocol][spec_window_delivery(lag).name]
        label = f"{protocol} - {lag:.0f}s lag"
        series_by_label[label] = series
        # Sample the series into before / around / after the failure.
        before = [f for _, t, f in series if t < at_time - 5]
        around = [f for _, t, f in series if at_time - 5 <= t <= at_time + 15]
        after = [f for _, t, f in series if t > at_time + 15]
        def _avg(vals):
            return format_percent(sum(vals) / len(vals)) if vals else "n/a"
        rows.append([label, _avg(before), _avg(around), _avg(after)])
    return FigureResult(
        f"Fig 10 ({fraction:.0%} crash)",
        f"percentage of nodes decoding each window; {fraction:.0%} of nodes "
        f"crash at t={at_time:.0f}s (ref-691)",
        rows, ["series", "before failure", "during failure", "after failure"],
        extra={"series": series_by_label, "failure_time": at_time})
