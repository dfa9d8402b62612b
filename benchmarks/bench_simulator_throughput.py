"""Engine micro-benchmarks: event throughput and end-to-end run cost.

Not a paper figure — these track the cost of the substrate itself so
regressions in the hot path (heap operations, uplink accounting, message
dispatch) are caught by comparing benchmark runs.
"""

from repro.experiments.gridrun import default_jobs
from repro.experiments.multi_seed import metric_offline_delivery
from repro.experiments.parallel import run_grid
from repro.experiments.scales import QUICK, scenario_at
from repro.experiments.runner import run_scenario
from repro.sim.engine import Simulator
from repro.workloads.distributions import REF_691


def run_phased_chains(enqueue, chains=100, depth=100, period=0.001):
    """``chains`` chains of ``depth`` self-scheduling events, enqueued
    through ``Simulator.<enqueue>`` (``"schedule"`` or ``"post"``).

    Each chain starts at its own phase, as every ``PeriodicTimer`` user
    does, so no two events share a timestamp — the shape every scenario
    has.  (Chains in lockstep would make every timestamp a
    ``chains``-way tie, which no scenario produces.)
    """
    sim = Simulator()
    push = getattr(sim, enqueue)

    def chain(remaining, delay=period):
        if remaining > 0:
            push(delay, lambda: chain(remaining - 1))

    for i in range(chains):
        chain(depth, delay=period * (i + 1) / chains)
    sim.run()
    return sim.events_executed


def bench_engine_event_throughput(benchmark):
    """Schedule/execute cost of the bare event loop."""
    executed = benchmark(run_phased_chains, "schedule")
    assert executed == 100 * 100


def bench_small_heap_scenario(benchmark):
    """End-to-end cost of a small HEAP run (fixed tiny scale)."""

    def run():
        config = scenario_at(QUICK, protocol="heap", distribution=REF_691,
                             n_nodes=30, duration=5.0, drain=10.0)
        return run_scenario(config)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.sim.events_executed > 1000


def bench_engine_post_throughput(benchmark):
    """Schedule/execute cost of the handle-free fire-and-forget path.

    This is the path every datagram delivery takes; comparing its OPS
    against bench_engine_event_throughput shows what the per-event
    EventHandle used to cost.
    """
    executed = benchmark(run_phased_chains, "post")
    assert executed == 100 * 100


def bench_multi_seed_sweep(benchmark):
    """8-seed sweep through the parallel experiment engine.

    Serial by default; set ``REPRO_JOBS=4`` to measure the fan-out.  The
    aggregated values are identical either way (the determinism tests
    enforce it), so this bench tracks pure wall-time scaling.
    """

    def run():
        config = scenario_at(QUICK, protocol="heap", distribution=REF_691,
                             n_nodes=30, duration=5.0, drain=10.0)
        return run_grid(config, seeds=range(1, 9),
                        metrics={"delivery": metric_offline_delivery},
                        jobs=default_jobs())

    grid = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(grid.records) == 8
    assert all(record.metrics["delivery"] > 0.9 for record in grid.records)
