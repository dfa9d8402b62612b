"""Per-table experiment definitions (Tables 1-3 of the paper).

Tables 2 and 3 are plans in the sense of
:mod:`repro.experiments.gridrun`: each yields one cell per
(distribution, protocol) pair with its per-class reduction, and
:func:`~repro.experiments.gridrun.run_plans` runs them.  Table 1 is
arithmetic on the distributions and runs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.experiments.gridrun import Plan
from repro.experiments.scales import Scale, current_scale, scenario_at
from repro.metrics.jitter import spec_mean_jittered_delivery_by_class
from repro.metrics.lag import TABLE_LAGS, spec_jitter_free_pct_by_class
from repro.metrics.report import ascii_table, format_percent
from repro.workloads.distributions import KBPS, MS_691, REF_691, REF_724


@dataclass
class TableResult:
    table: str
    description: str
    rows: List[Sequence[str]]
    headers: Sequence[str]
    extra: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        title = f"[{self.table}] {self.description}"
        return ascii_table(self.headers, self.rows, title=title)


def table1_distributions(stream_rate_bps: float = 600 * KBPS) -> TableResult:
    """Table 1: the three reference distributions and their CSR."""
    rows = []
    for dist in (REF_691, REF_724, MS_691):
        fractions = " / ".join(
            f"{cls.fraction:.2f}@{cls.label}" for cls in dist.classes)
        rows.append([dist.name, f"{dist.csr(stream_rate_bps):.2f}",
                     f"{dist.average_bps() / KBPS:.1f} kbps", fractions])
    return TableResult(
        "Table 1", "upload capability distributions",
        rows, ["name", "CSR", "average", "class fractions"])


#: (distribution, protocol) matrix shared by Tables 2 and 3 — identical
#: cells, different reductions: planned together, both tables share runs.
_TABLE_MATRIX = [(dist, protocol)
                 for dist in (REF_691, REF_724, MS_691)
                 for protocol in ("standard", "heap")]


def _table_cells(scale: Scale, spec_for):
    """One cell per matrix entry; ``spec_for(lag)`` builds its spec."""
    cells = []
    specs = []
    for dist, protocol in _TABLE_MATRIX:
        spec = spec_for(TABLE_LAGS[dist.name])
        specs.append(spec)
        cells.append((scenario_at(scale, protocol=protocol,
                                  distribution=dist), (spec,)))
    return cells, specs


def table2_jittered_delivery(scale: Scale = None) -> Plan:
    """Table 2: average delivery rate inside windows that cannot be decoded."""
    scale = scale or current_scale()
    cells, specs = _table_cells(scale, spec_mean_jittered_delivery_by_class)
    summaries = yield cells
    rows = []
    data = {}
    for (dist, protocol), spec, summary in zip(_TABLE_MATRIX, specs,
                                               summaries):
        ratios = summary[spec.name]
        data[(dist.name, protocol)] = ratios
        for label, value in ratios.items():
            rows.append([dist.name, protocol, label, format_percent(value)])
    return TableResult(
        "Table 2", "average delivery rate in jittered windows "
        "(100% = the class had no jittered windows)",
        rows, ["distribution", "protocol", "class", "delivery in jittered"],
        extra={"data": data})


def table3_jitter_free_nodes(scale: Scale = None) -> Plan:
    """Table 3: % of nodes receiving a fully jitter-free stream, by class."""
    scale = scale or current_scale()
    cells, specs = _table_cells(scale, spec_jitter_free_pct_by_class)
    summaries = yield cells
    rows = []
    data = {}
    for (dist, protocol), spec, summary in zip(_TABLE_MATRIX, specs,
                                               summaries):
        lag = TABLE_LAGS[dist.name]
        percentages = summary[spec.name]
        data[(dist.name, protocol)] = percentages
        for label, value in percentages.items():
            rows.append([f"{dist.name} ({lag:.0f}s lag)", protocol, label,
                         format_percent(value)])
    return TableResult(
        "Table 3", "percentage of nodes receiving a jitter-free stream",
        rows, ["distribution", "protocol", "class", "% jitter-free nodes"],
        extra={"data": data})
