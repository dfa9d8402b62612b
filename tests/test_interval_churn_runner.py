"""Integration: continuous (interval) churn through the scenario runner.

The runner accepts any churn object exposing ``schedule``; this checks
the IntervalChurn extension end to end — nodes keep dying throughout
the stream and the dissemination keeps serving the survivors.
"""

from repro import ScenarioConfig, run_scenario
from repro.metrics.windows import window_delivery_over_time
from repro.workloads import REF_691
from repro.workloads.churn import IntervalChurn


def test_interval_churn_end_to_end():
    churn = IntervalChurn(interval=3.0, start=4.0, stop=16.0)
    result = run_scenario(ScenarioConfig(
        protocol="heap", distribution=REF_691, n_nodes=40,
        duration=18.0, drain=25.0, seed=9, churn=churn))
    # One victim every 3s between ~7s and 16s.
    assert 2 <= len(churn.victims) <= 4
    assert 0 not in churn.victims
    assert set(churn.victims) == set(result.crash_times)
    # Crashed nodes stopped receiving at their crash times.
    for victim in churn.victims:
        log = result.log_of(victim)
        if len(log):
            assert max(t for _, t in log.items()) <= result.crash_times[victim]
    # Survivors still decode the stream's tail windows.
    series = window_delivery_over_time(result, lag=15.0)
    survivor_share = 100.0 * (39 - len(churn.victims)) / 39
    tail = [frac for _, publish_time, frac in series if publish_time > 16.0]
    assert tail and min(tail) >= survivor_share - 8.0


def test_victims_are_per_run():
    # One config run twice reports each run's own victims, not both runs'.
    churn = IntervalChurn(0.5, start=1.0)
    config = ScenarioConfig(n_nodes=20, churn=churn, seed=3)
    first = run_scenario(config)
    victims = list(churn.victims)
    second = run_scenario(config)
    assert churn.victims == victims
    assert len(churn.victims) == len(second.crash_times)
    assert set(churn.victims) == set(first.crash_times)
