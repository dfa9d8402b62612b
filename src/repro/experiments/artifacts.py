"""The artifact registry: every figure, table, ablation and extension.

One id -> (kind, fn) table.  The CLI's ``figure``/``table``/
``ablation``/``extension``/``list`` verbs and the service's render jobs
all resolve artifacts here, so the engine never has to import its own
front end.  Every entry is ``fn(scale, **grid)``: ``scale`` is a
:class:`~repro.experiments.scales.Scale` (None = the environment's) and
``grid`` is the caller's execution keywords, declared once by
:func:`repro.experiments.gridrun.grid_summaries`.  Extensions take no
``grid``: their cells run through the grid pipeline's defaults.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Tuple

from repro.experiments import ablations, extensions, figures, tables

#: The artifact kinds, in ``repro list`` order.
KINDS = ("figure", "table", "ablation", "extension")

ARTIFACTS: Dict[str, Tuple[str, Callable]] = {
    "fig1": ("figure", figures.fig1_unconstrained),
    "fig2": ("figure", figures.fig2_fanout_sweep),
    "fig3": ("figure", figures.fig3_heap_dist1),
    "fig4": ("figure", figures.fig4_bandwidth_usage),
    "fig5": ("figure", figures.fig5_quality_ref691),
    "fig6": ("figure", figures.fig6_quality_classes),
    "fig7": ("figure", figures.fig7_jitter_cdf),
    "fig8": ("figure", figures.fig8_lag_by_class),
    "fig9": ("figure", figures.fig9_lag_cdf),
    "fig10a": ("figure", functools.partial(figures.fig10_churn, fraction=0.2)),
    "fig10b": ("figure", functools.partial(figures.fig10_churn, fraction=0.5)),
    # Table 1 is arithmetic on the distributions: no scale, no grid.
    "table1": ("table", lambda scale=None, **grid:
               tables.table1_distributions()),
    "table2": ("table", tables.table2_jittered_delivery),
    "table3": ("table", tables.table3_jitter_free_nodes),
    "aggregation": ("ablation", ablations.ablation_aggregation),
    "retransmission": ("ablation", ablations.ablation_retransmission),
    "source-bias": ("ablation", ablations.ablation_source_bias),
    "fanout-cap": ("ablation", ablations.ablation_fanout_cap),
    "freeriders": ("extension", extensions.ext_freeriders),
    "membership": ("extension", extensions.ext_membership),
    "discovery": ("extension", extensions.ext_capability_discovery),
    "size-estimation": ("extension", lambda scale=None:
                        extensions.ext_size_estimation()),
}


def artifact_ids(kind: str) -> List[str]:
    """The registered ids of one kind, sorted."""
    return sorted(name for name, (its_kind, _) in ARTIFACTS.items()
                  if its_kind == kind)


def artifact(kind: str, artifact_id: str) -> Callable:
    """The registered ``fn(scale, **grid)``; raises ValueError (naming
    the known ids) when ``kind`` has no such artifact."""
    its_kind, fn = ARTIFACTS.get(artifact_id, (None, None))
    if its_kind != kind:
        raise ValueError(f"unknown {kind} id {artifact_id!r}; "
                         f"known: {', '.join(artifact_ids(kind))}")
    return fn


def render(kind: str, artifact_id: str, scale=None, **grid):
    """Regenerate one artifact; returns its Figure/TableResult."""
    return artifact(kind, artifact_id)(scale, **grid)
