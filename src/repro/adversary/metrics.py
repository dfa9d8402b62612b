"""Per-victim impact metrics for adversarial scenarios.

The question an attack sweep answers is not "did the attackers
misbehave" (they did, by construction) but *what it cost*: how much
worse the honest population streams, how much worse the attacked seats
themselves stream, and what the attack cost the attackers — upload spent,
convictions earned.  :func:`attack_impact` reduces one finished run to
exactly that comparison, shaped to the in-worker summary contracts
(:mod:`repro.metrics.summary`): picklable module-level function,
JSON-able value, pure function of the run — so it rides the grid
engine's checkpoints and the sharded harvest unchanged.

Alongside the bundle-shaped reduction, the module exposes scalar grid
metrics (``metric_attack_*``) for ``sweep --attacks`` CSV columns.

Imports of the metric/conviction machinery are deferred into the
function bodies: this module is re-exported from :mod:`repro.adversary`,
which the experiment runner imports, and the :mod:`repro.metrics`
package imports the runner — importing any of it at module load would
close that cycle.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

from repro.analysis.stats import mean


def _subpopulation(result, ids: Sequence[int],
                   lags: Dict[int, float]) -> Dict[str, object]:
    """Delivery/lag/cost summary of one subpopulation of receivers."""
    if not ids:
        return {"n": 0, "delivery_pct": math.nan, "mean_lag": math.nan,
                "unreached": 0, "mean_served": math.nan}
    total = result.total_packets
    delivered = [len(result.log_of(node_id)) for node_id in ids]
    own_lags = [lags[node_id] for node_id in ids]
    return {
        "n": len(ids),
        "delivery_pct": (100.0 * mean(delivered) / total
                         if total > 0 else math.nan),
        # mean() is finite-only; the unreached count carries the infs.
        "mean_lag": mean(own_lags),
        "unreached": sum(1 for lag in own_lags if math.isinf(lag)),
        "mean_served": mean(result.nodes[node_id].packets_served
                            for node_id in ids),
    }


def attack_impact(result) -> Dict[str, object]:
    """Attacked-vs-honest deltas plus attacker cost, JSON-able.

    ``attackers`` splits the receivers; ``honest``/``attacked`` summarize
    each side; ``delta`` is honest minus attacked (positive delivery /
    negative lag deltas mean the attacked seats stream worse); and
    ``attacker_cost`` is what the adversary paid — packets served from
    its own uplink, attack-specific counters, and convictions by the
    honest audit quorum (``convicted``/``conviction_recall`` stay 0/NaN
    when the scenario ran no audit).
    """
    from repro.freeriders.analysis import convictions
    from repro.metrics.lag import per_node_lag_jitter_free

    attackers = result.attackers
    receivers = list(result.receiver_ids())
    attacked_ids = [n for n in receivers if n in attackers]
    honest_ids = [n for n in receivers if n not in attackers]
    lags = per_node_lag_jitter_free(result)
    honest = _subpopulation(result, honest_ids, lags)
    attacked = _subpopulation(result, attacked_ids, lags)

    by_attack: Dict[str, int] = {}
    for name, _param in attackers.values():
        by_attack[name] = by_attack.get(name, 0) + 1
    counters: Dict[str, int] = {}
    for stats in result.attacker_stats.values():
        for counter, value in stats.items():
            counters[counter] = counters.get(counter, 0) + value

    convicted = convictions(result) & set(attacked_ids) if result.detectors else set()
    return {
        "attackers": {
            "n": len(attacked_ids),
            "by_attack": dict(sorted(by_attack.items())),
        },
        "honest": honest,
        "attacked": attacked,
        "delta": {
            "delivery_pct": honest["delivery_pct"] - attacked["delivery_pct"],
            "mean_lag": attacked["mean_lag"] - honest["mean_lag"],
        },
        "attacker_cost": {
            "mean_served": attacked["mean_served"],
            "honest_mean_served": honest["mean_served"],
            "counters": dict(sorted(counters.items())),
            "convicted": len(convicted),
            "conviction_recall": (len(convicted) / len(attacked_ids)
                                  if attacked_ids else math.nan),
        },
    }


# ----------------------------------------------------------------------
# scalar grid metrics: one CSV column each (``sweep --attacks``)
# ----------------------------------------------------------------------
def metric_honest_delivery_pct(result) -> float:
    """Mean delivery % of the honest (un-attacked) receivers."""
    return attack_impact(result)["honest"]["delivery_pct"]


def metric_attack_delivery_delta(result) -> float:
    """Honest minus attacked mean delivery % (positive = victims worse)."""
    return attack_impact(result)["delta"]["delivery_pct"]


def metric_attack_lag_delta(result) -> float:
    """Attacked minus honest mean jitter-free lag (positive = victims worse)."""
    return attack_impact(result)["delta"]["mean_lag"]


def metric_attacker_served_mean(result) -> float:
    """Mean packets served by an attacker (the adversary's upload bill)."""
    return attack_impact(result)["attacker_cost"]["mean_served"]


def metric_attackers_convicted(result) -> float:
    """Attackers convicted by the honest audit quorum (0 without --audit)."""
    return attack_impact(result)["attacker_cost"]["convicted"]


#: name -> scalar metric fn, the columns ``sweep --attacks`` adds.
ATTACK_GRID_METRICS = {
    "honest_delivery_pct": metric_honest_delivery_pct,
    "attack_delivery_delta": metric_attack_delivery_delta,
    "attack_lag_delta": metric_attack_lag_delta,
    "attacker_served_mean": metric_attacker_served_mean,
    "attackers_convicted": metric_attackers_convicted,
}
