"""Tests for the benchmark trend gate (``benchmarks/check_trend.py``).

The gate script is standalone (CI runs it without PYTHONPATH), so these
tests exercise it as a subprocess: baseline-only mode, history
accumulation, the history-median reference, and the failure path.
"""

import json
import os
import subprocess
import sys

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir,
                      "benchmarks", "check_trend.py")


def _report(post=2_000_000, schedule=1_500_000, scenario=150_000,
            fanout=700_000):
    return {
        "engine": {"phased_post_events_per_sec": post,
                   "phased_schedule_events_per_sec": schedule},
        "fanout": {"send_many_events_per_sec": fanout},
        "scenario": {"events_per_sec": scenario},
    }


def _run(tmp_path, baseline, fresh, *extra):
    baseline_path = tmp_path / "baseline.json"
    fresh_path = tmp_path / "fresh.json"
    baseline_path.write_text(json.dumps(baseline))
    fresh_path.write_text(json.dumps(fresh))
    return subprocess.run(
        [sys.executable, SCRIPT, str(baseline_path), str(fresh_path), *extra],
        capture_output=True, text=True)


def test_passes_against_baseline_only(tmp_path):
    result = _run(tmp_path, _report(), _report())
    assert result.returncode == 0, result.stderr
    assert "trend ok" in result.stdout


def test_fails_on_regression(tmp_path):
    result = _run(tmp_path, _report(), _report(scenario=10_000))
    assert result.returncode == 1
    assert "regressed" in result.stderr


def test_history_accumulates_only_on_success(tmp_path):
    history = tmp_path / "history.jsonl"
    assert _run(tmp_path, _report(), _report(),
                "--history", str(history)).returncode == 0
    assert _run(tmp_path, _report(), _report(scenario=160_000),
                "--history", str(history)).returncode == 0
    records = [json.loads(line)
               for line in history.read_text().splitlines()]
    assert len(records) == 2
    assert records[1]["metrics"]["scenario.events_per_sec"] == 160_000
    # A regressing run fails the gate and must not pollute the history.
    assert _run(tmp_path, _report(), _report(scenario=10_000),
                "--history", str(history)).returncode == 1
    assert len(history.read_text().splitlines()) == 2


def test_reference_is_median_of_baseline_and_history(tmp_path):
    """The gate follows the measured trajectory: a fresh value that would
    fail against a stale (slow) committed baseline passes when the recent
    history shows today's hosts are simply faster — and vice versa: a
    value far below the history median fails even if it clears the
    ancient baseline."""
    history = tmp_path / "history.jsonl"
    with open(history, "w") as fh:
        for value in (400_000, 420_000, 440_000):
            fh.write(json.dumps(
                {"metrics": {"scenario.events_per_sec": value}}) + "\n")
    # Median of (150k baseline, 400k, 420k, 440k) = 410k; fresh 190k is
    # above the baseline but under half the trajectory -> fail.
    result = _run(tmp_path, _report(scenario=150_000),
                  _report(scenario=190_000), "--history", str(history))
    assert result.returncode == 1
    # 250k clears 50% of the 410k median -> pass.
    result = _run(tmp_path, _report(scenario=150_000),
                  _report(scenario=250_000), "--history", str(history))
    assert result.returncode == 0, result.stderr


def _sharding(serial, batched, reduction):
    return {"serial_events_per_sec": serial,
            "wire_batching": {"batched_events_per_sec": batched,
                              "bytes_reduction": reduction}}


def test_shard_speed_keys_are_not_gated(tmp_path):
    """Sharding is a parity-tested capability, not a speed path: the
    smoke bench's ``sharding`` section may collapse against a baseline
    that carried it, and the history does not record it."""
    baseline = dict(_report(), sharding=_sharding(30_000, 16_000, 3.0))
    fresh = dict(_report(), sharding=_sharding(1_000, 1_000, 1.0))
    history = tmp_path / "history.jsonl"
    result = _run(tmp_path, baseline, fresh, "--history", str(history))
    assert result.returncode == 0, result.stderr
    assert "sharding" not in result.stdout
    record = json.loads(history.read_text().splitlines()[-1])
    assert not any(key.startswith("sharding.") for key in record["metrics"])


def test_metric_missing_from_baseline_gated_via_history(tmp_path):
    """A metric the committed baseline predates (e.g. the fanout bench)
    is skipped until history exists, then gated against history alone."""
    baseline = _report()
    del baseline["fanout"]
    history = tmp_path / "history.jsonl"
    assert _run(tmp_path, baseline, _report(),
                "--history", str(history)).returncode == 0
    result = _run(tmp_path, baseline, _report(fanout=10_000),
                  "--history", str(history))
    assert result.returncode == 1
    assert "fanout" in result.stderr


def test_append_after_truncated_last_line_keeps_history_parseable(tmp_path):
    """A killed writer leaves a partial trailing line; appending must
    drop it (it is dead data the reader already ignores) rather than
    glue the new record onto it or leave it to poison later reads."""
    history = tmp_path / "history.jsonl"
    good = json.dumps({"metrics": {"scenario.events_per_sec": 150_000}})
    history.write_text(good + "\n" + good[:20])  # no trailing newline
    assert _run(tmp_path, _report(), _report(),
                "--history", str(history)).returncode == 0
    lines = history.read_text().splitlines()
    assert len(lines) == 2  # partial line dropped, fresh record appended
    for line in lines:
        json.loads(line)
    # And a subsequent run still reads + appends cleanly.
    assert _run(tmp_path, _report(), _report(),
                "--history", str(history)).returncode == 0
    assert len(history.read_text().splitlines()) == 3


def test_history_window_limits_reference(tmp_path):
    history = tmp_path / "history.jsonl"
    with open(history, "w") as fh:
        # Old slow records followed by a fast recent one.
        for value in (10_000, 10_000, 10_000, 2_000_000):
            fh.write(json.dumps(
                {"metrics": {"scenario.events_per_sec": value}}) + "\n")
    result = _run(tmp_path, _report(scenario=2_000_000),
                  _report(scenario=150_000),
                  "--history", str(history), "--history-window", "1")
    # Reference = median(2M baseline, 2M last record) = 2M -> 150k fails.
    assert result.returncode == 1
