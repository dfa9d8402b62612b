"""The ``service-jobs`` workload: tiny jobs through a child
``python -m repro serve`` over **loopback** HTTP.

One client thread (closed loop): POST the job, follow its SSE stream to
the terminal state, GET the result.  Every 6th job re-submits the spec
that finished 3 jobs earlier, so a sixth of the jobs are *warm* (served
from the result cache the cold jobs bypass).  Every HTTP call and SSE
event is timestamped on the client side in both modes; a traced run only
reports more of those timestamps.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import repro
from repro.experiments.parallel import run_grid
from repro.experiments.specs import SweepSpec
from repro.service.client import ServiceClient
from repro.service.jobs import grid_result_jsonable

from ledger.workloads import (CPUS, Workload, clock, corrected, digest_of,
                              median_of, sample, scenario_seed, timed_reps)

#: Jobs per pattern cycle: 5 cold, then 1 warm re-submission.
CYCLE = 6
#: The server's memory is read after this many jobs (warm-up included):
#: it grows with every cached result, and how many jobs fit into the
#: measured seconds depends on the host.
RSS_AFTER_JOBS = 5 * CYCLE


def _deterministic(result: dict) -> dict:
    """A job result without its measured parts."""
    records = [{k: v for k, v in record.items() if k != "wall_time"}
               for record in result["records"]]
    return {**{k: v for k, v in result.items() if k != "timing"},
            "records": records}


class ServiceWorkload(Workload):
    name = "service-jobs"
    at_least = 2 * CYCLE
    #: Jobs between two host-speed probes: one pattern cycle.
    block = CYCLE

    def __init__(self, seed: int, smoke: bool, out_dir: str):
        self.seed = seed
        self.nodes = 10 if smoke else 20
        self.tmp = os.path.join(out_dir, f"tmp-service-{os.getpid()}")
        self.out_dir = out_dir
        self.extra: Dict[str, object] = {"cpus": CPUS,
                                         "transport": "loopback"}
        self.server = None
        self.client = None
        self.boot_s = 0.0
        #: Every job this server has run, warm-up cycle included.
        self.jobs: List[dict] = []
        self.first_result: dict = {}
        self.sse_events = 0
        self.rss_mb = 0.0

    # ------------------------------------------------------------------
    def _params(self, index: int) -> dict:
        return {"protocols": ["heap"], "nodes": self.nodes, "seconds": 2,
                "drain": 3, "base_seed": scenario_seed(self.seed, index)}

    def _boot(self) -> None:
        os.makedirs(self.tmp, exist_ok=True)
        log_path = os.path.join(self.tmp, "server.log")
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        started = clock()
        with open(log_path, "w", encoding="utf-8") as log:
            self.server = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--checkpoint-dir", self.tmp, "--quiet"],
                env=env, stdout=subprocess.DEVNULL, stderr=log)
        url = None
        while url is None:
            if self.server.poll() is not None:
                raise RuntimeError(f"service exited with code "
                                   f"{self.server.returncode}; see {log_path}")
            if clock() - started > 30:
                raise RuntimeError("service did not announce its URL in 30s")
            with open(log_path, encoding="utf-8") as log:
                for line in log:
                    if line.startswith("repro service on "):
                        url = line.split()[3]
            time.sleep(0.005)
        self.client = ServiceClient(url)
        self.client.health()
        self.boot_s = clock() - started

    def _job(self, index: int, warm_of: int = -1) -> dict:
        """Submit one job and follow it to its result."""
        params = self._params(index if warm_of < 0 else warm_of)
        stamps = {}
        t0 = clock()
        job_id = self.client.submit("run", params)["job"]["id"]
        stamps["submitted"] = clock()
        state = None
        for event in self.client.events(job_id):
            self.sse_events += 1
            if event.get("type") == "state":
                state = event["state"]
                stamps.setdefault(state, clock())
        stamps["terminal"] = clock()
        if state != "done":
            raise RuntimeError(f"job {job_id} ended {state!r}")
        result = self.client.result(job_id)["result"]
        t1 = clock()
        record = result["records"][0]
        out = sample(
            t1 - t0, record["events_executed"], 1,
            digest_of(_deterministic(result)),
            {"sim.engine.events": record["events_executed"]},
            submit_ms=1e3 * (stamps["submitted"] - t0),
            queue_ms=1e3 * (stamps.get("running", stamps["terminal"])
                            - stamps["submitted"]),
            exec_ms=1e3 * (stamps["terminal"]
                           - stamps.get("running", stamps["terminal"])),
            result_ms=1e3 * (t1 - stamps["terminal"]),
            cell_wall_ms=1e3 * record["wall_time"])
        out["warm"] = warm_of >= 0
        out["ok"] = not result["failures"] and result["cell_retries"] == 0
        out["result"] = result
        return out

    def _next(self) -> dict:
        """The next job of the pattern: its position is the count of
        jobs this server has seen, so position 5, 11, ... re-submit the
        spec of the (cold) job three positions earlier."""
        position = len(self.jobs)
        warm = position % CYCLE == CYCLE - 1
        out = self._job(position, warm_of=position - 3 if warm else -1)
        if position == 0:
            self.first_result = out["result"]
        del out["result"]
        self.jobs.append(out)
        if len(self.jobs) == RSS_AFTER_JOBS:
            self.rss_mb = self._server_hwm_mb()
        return out

    # ------------------------------------------------------------------
    def setup(self) -> dict:
        """Boot the service and run one warm-up cycle."""
        self._boot()
        return [self._next() for _ in range(CYCLE)][0]

    def rep(self, i: int) -> dict:
        return self._next()

    def series(self, ops: List[dict]) -> Dict[str, List[float]]:
        """Latency over the *cold* jobs; the two rates per run of
        ``CYCLE`` consecutive jobs (5 cold + 1 warm): events/s over the
        cycle's cold jobs, jobs/s over all six, so the warm share counts
        towards throughput but not towards latency."""
        cycles = [ops[k:k + CYCLE]
                  for k in range(0, len(ops) - CYCLE + 1, CYCLE)]
        cold = [[op for op in cycle if not op["warm"]] for cycle in cycles]
        return {
            "latency_ms": [1e3 * corrected(op) for op in ops
                           if not op["warm"]],
            "events_per_s": [sum(op["events"] for op in jobs)
                             / sum(corrected(op) for op in jobs)
                             for jobs in cold],
            "cells_per_s": [CYCLE / sum(corrected(op) for op in cycle)
                            for cycle in cycles],
        }

    def verify(self, first: dict) -> Dict[str, bool]:
        spec = SweepSpec.from_params({**self._params(0), "num_seeds": 1})
        grid = run_grid(spec.configs(), spec.seed_list(), spec.metrics())
        reference = grid_result_jsonable("run", grid)
        return {"events_positive": first["events"] > 0,
                "job_equals_inprocess_grid":
                    digest_of(_deterministic(self.first_result))
                    == digest_of(_deterministic(reference))}

    def peak_rss_mb(self) -> float:
        """The server child's high-water RSS (``VmHWM``) after its first
        ``RSS_AFTER_JOBS`` jobs, MiB (now, if it has run fewer)."""
        return self.rss_mb or self._server_hwm_mb()

    def _server_hwm_mb(self) -> float:
        with open(f"/proc/{self.server.pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the server's /proc status")

    def close(self) -> None:
        if self.server is not None:
            self.server.terminate()
            try:
                self.server.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        shutil.rmtree(self.tmp, ignore_errors=True)

    # ------------------------------------------------------------------
    def traced(self, seconds: float, first: dict) -> dict:
        rtts = []
        for _ in range(20):
            started = clock()
            self.client.health()
            rtts.append(1e3 * (clock() - started))
        measured = timed_reps(self.rep, seconds, self.at_least,
                              block=self.block)
        cold = [job for job in measured if not job["warm"]]
        warm = [job for job in measured if job["warm"]]

        metrics = {
            "service.boot_s": self.boot_s,
            "service.http.health_rtt_ms_p50": statistics.median(rtts),
            "service.api.submit_ms_p50": median_of(cold, "submit_ms"),
            "service.jobs.queue_ms_p50": median_of(cold, "queue_ms"),
            "service.jobs.exec_ms_p50": median_of(cold, "exec_ms"),
            "service.api.result_ms_p50": median_of(cold, "result_ms"),
            "service.jobs.cell_wall_ms_p50": median_of(cold, "cell_wall_ms"),
            "service.overhead_ms_p50": statistics.median(
                1e3 * job["wall_s"] - job["timings"]["cell_wall_ms"]
                for job in cold),
            "service.jobs.warm_resubmit_ms_p50": statistics.median(
                1e3 * job["wall_s"] for job in warm),
            "service.http.sse_events": self.sse_events,
            "service.jobs.failed": sum(1 for job in measured
                                       if not job["ok"]),
            "sim.engine.events": self.jobs[0]["events"],
            # The client timestamps the same calls in both modes.
            "trace.overhead_ratio": 1.0,
        }
        spans = ("submit_ms", "queue_ms", "exec_ms", "result_ms",
                 "cell_wall_ms")
        self.write_trace(
            columns=["warm", "submit_to_result_ms", *spans],
            jobs=[[job["warm"], 1e3 * job["wall_s"],
                   *(job["timings"][span] for span in spans)]
                  for job in measured])
        checks = self.verify(first)
        return {"metrics": metrics, "checks": checks, "samples": measured}
