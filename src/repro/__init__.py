"""repro — a reproduction of "Heterogeneous Gossip" (HEAP, Middleware 2009).

A production-quality discrete-event implementation of HEAP, the
heterogeneity-aware gossip streaming protocol of Frey et al., together
with every substrate its evaluation needs: the event-driven network
simulator with throttled uplinks, membership with delayed failure
detection, the FEC-windowed stream model, the homogeneous-gossip and
static-tree baselines, the paper's workloads, and a benchmark harness
regenerating every figure and table of the paper's evaluation section.

Quickstart::

    from repro import ScenarioConfig, run_scenario
    from repro.workloads import MS_691

    result = run_scenario(ScenarioConfig(
        protocol="heap", n_nodes=80, duration=20.0, distribution=MS_691))
    print(result.analyzer().jitter_free_fraction(
        result.log_of(1), result.windows(), lag=10.0))

See README.md for the architecture overview and DESIGN.md for the
paper-to-module map.
"""

import importlib

__version__ = "1.0.0"

#: Re-exported name -> the module that defines it.  Resolved on first
#: access, so importing a submodule (``repro.lint`` above all) never
#: imports the experiment stack with it.
_EXPORTS = {
    "ExperimentResult": "repro.experiments",
    "GossipConfig": "repro.core",
    "HeapGossipNode": "repro.core",
    "ScenarioConfig": "repro.workloads",
    "StandardGossipNode": "repro.core",
    "StreamConfig": "repro.streaming",
    "run_scenario": "repro.experiments",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)
