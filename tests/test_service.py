"""End-to-end tests of the experiment service control plane.

The contract under test: a job submitted over HTTP is the *same
experiment* as the equivalent CLI invocation — identical result render,
identical CSV artifact (the measured ``wall_time_s`` column excepted) —
and the service adds job semantics on top: monotonic SSE progress,
cancel (which kills the job's executor process), and
resume-from-checkpoint when the same spec is resubmitted.  Every test binds an ephemeral port (``port=0``) so the
suite is hermetic.
"""

import json
import multiprocessing
import os
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.service import ExperimentService, JobManager
from repro.service.client import ServiceClient, ServiceError
from repro.faults.supervise import Supervisor, task_worker
from repro.service.jobs import (JobSpec, QueueFullError, SpecQuarantined,
                                _run_job)

#: The smoke grid: 1 protocol x 2 seeds of a tiny scenario.
SWEEP = {"protocols": ["heap"], "nodes": 10, "seconds": 2.0, "drain": 4.0,
         "num_seeds": 2}
SWEEP_ARGV = ["sweep", "--protocols", "heap", "--nodes", "10",
              "--seconds", "2", "--drain", "4", "--num-seeds", "2",
              "--quiet"]

#: A 4-cell grid for the cancel/resume scenario.
RESUME = {"protocols": ["heap", "standard"], "nodes": 10, "seconds": 2.0,
          "drain": 4.0, "num_seeds": 2}
RESUME_ARGV = ["sweep", "--protocols", "heap,standard", "--nodes", "10",
               "--seconds", "2", "--drain", "4", "--num-seeds", "2",
               "--quiet"]


@pytest.fixture()
def service(tmp_path):
    manager = JobManager(checkpoint_dir=str(tmp_path / "service"),
                         executors=1)
    svc = ExperimentService(manager, port=0)
    svc.serve_background()
    try:
        yield svc
    finally:
        svc.close()


@pytest.fixture()
def client(service):
    return ServiceClient(service.url, timeout=60.0)


def strip_wall_time(csv_text: str):
    """CSV rows without the measured ``wall_time_s`` (last) column."""
    rows = csv_text.strip().splitlines()
    assert rows[0].endswith(",wall_time_s")
    return [row.rsplit(",", 1)[0] for row in rows]


class TestSubmitPollResult:
    def test_http_sweep_matches_cli_byte_for_byte(self, client, tmp_path,
                                                  capsys):
        job_id = client.submit("sweep", SWEEP)["job"]["id"]
        job = client.wait(job_id, timeout=300)
        assert job["state"] == "done"
        assert job["cells"] == {"done": 2, "total": 2, "executed": 2,
                                "restored": 0}
        result = client.result(job_id)["result"]

        cli_csv = tmp_path / "cli.csv"
        assert main(SWEEP_ARGV + ["--csv", str(cli_csv)]) == 0
        cli_render = capsys.readouterr().out
        assert result["render"] + "\n" == cli_render
        assert (strip_wall_time(client.csv(job_id))
                == strip_wall_time(cli_csv.read_text()))

    def test_result_json_structure(self, client):
        job_id = client.submit("sweep", SWEEP)["job"]["id"]
        client.wait(job_id, timeout=300)
        result = client.result(job_id)["result"]
        assert result["scenarios"] == ["heap"]
        assert result["seeds"] == [1, 2]
        assert len(result["records"]) == 2
        assert "delivery" in result["metric_names"]
        # Measured values live in their own clearly-flagged block.
        assert set(result["timing"]) == {"wall_time", "jobs"}

    def test_sampler_attack_sweep_matches_submit_wait(self, service, capsys):
        """`membership` is part of the one spec table, so the
        poisoned-view attack (cyclon only) is reachable from `sweep`,
        `submit` and HTTP alike — and all render the same bytes."""
        flags = ["--protocols", "heap", "--membership", "cyclon",
                 "--attacks", "poisoned-view=0.05", "--nodes", "20",
                 "--seconds", "2", "--drain", "4", "--num-seeds", "1",
                 "--quiet"]
        assert main(["sweep"] + flags) == 0
        swept = capsys.readouterr().out
        assert "attack_delivery_delta" in swept  # the attacked columns
        assert main(["submit", "--url", service.url, "--wait"] + flags) == 0
        assert capsys.readouterr().out == swept

    def test_render_job_matches_cli(self, client, capsys):
        job_id = client.submit("table", {"id": "table1"})["job"]["id"]
        job = client.wait(job_id, timeout=300)
        assert job["state"] == "done"
        result = client.result(job_id)["result"]
        assert main(["table", "table1"]) == 0
        assert result["render"] + "\n" == capsys.readouterr().out


class TestSseStream:
    def test_progress_is_monotonic_and_ends_terminal(self, client):
        job_id = client.submit("sweep", SWEEP)["job"]["id"]
        events = list(client.events(job_id))
        assert events, "stream must replay at least the queued event"
        dones = [e["done"] for e in events if e["type"] == "progress"]
        assert dones == sorted(dones) == [1, 2]
        last = events[-1]
        assert (last["type"], last["state"]) == ("state", "done")
        # seq numbers the replayed log: strictly increasing from 0.
        assert [e["seq"] for e in events] == list(range(len(events)))

    def test_progress_events_carry_throughput_and_cell_identity(self, client):
        job_id = client.submit("sweep", SWEEP)["job"]["id"]
        progress = [e for e in client.events(job_id)
                    if e["type"] == "progress"]
        for event in progress:
            assert event["job"] == job_id
            assert event["cell_key"]
            assert event["events_executed"] > 0
            assert event["events_per_sec"] > 0
            assert event["scenario_name"] == "heap"
            assert event["restored"] is False


class TestCancelResume:
    def test_cancel_then_resubmit_resumes_from_checkpoint(self, client,
                                                          tmp_path, capsys):
        job_id = client.submit("sweep", RESUME)["job"]["id"]
        # Cancel as soon as the first cell lands: the job's executor
        # process is killed mid-grid, so at least one — but not all —
        # cells are checkpointed.
        for event in client.events(job_id):
            if event["type"] == "progress":
                client.cancel(job_id)
        first = client.wait(job_id, timeout=300)
        assert first["state"] == "cancelled"
        assert 1 <= first["cells"]["executed"] < first["cells"]["total"]

        resubmitted = client.submit("sweep", RESUME)
        assert resubmitted["created"] is True  # a new job, same fingerprint
        second_id = resubmitted["job"]["id"]
        assert second_id != job_id
        second = client.wait(second_id, timeout=300)
        assert second["state"] == "done"
        # The resume accounting: cancelled work was not redone.
        assert second["cells"]["restored"] >= 1
        assert second["cells"]["executed"] < second["cells"]["total"]
        assert (second["cells"]["executed"] + second["cells"]["restored"]
                == second["cells"]["total"])

        # Identical final summary to an uninterrupted CLI run.
        result = client.result(second_id)["result"]
        assert main(RESUME_ARGV) == 0
        assert result["render"] + "\n" == capsys.readouterr().out

    def test_cancel_queued_job_is_immediate(self, client):
        # executors=1: the first job occupies the executor, the second
        # waits in the queue and must cancel without ever running.
        running = client.submit("sweep", RESUME)["job"]["id"]
        queued = client.submit("sweep", SWEEP)["job"]["id"]
        cancelled = client.cancel(queued)
        assert cancelled["state"] == "cancelled"
        assert client.job(queued)["started_at"] is None
        client.cancel(running)
        client.wait(running, timeout=300)


class TestCoalescing:
    def test_identical_active_spec_joins_existing_job(self, client):
        first = client.submit("sweep", RESUME)
        # Same spec while queued/running: no second execution.
        second = client.submit("sweep", RESUME)
        assert second["created"] is False
        assert second["job"]["id"] == first["job"]["id"]
        # A different spec is its own job.
        other = client.submit("sweep", SWEEP)
        assert other["job"]["id"] != first["job"]["id"]
        client.cancel(first["job"]["id"])
        client.wait(first["job"]["id"], timeout=300)
        client.wait(other["job"]["id"], timeout=300)


    def test_finished_spec_answers_with_its_job(self, service, client):
        first = client.submit("sweep", SWEEP)["job"]["id"]
        done = client.wait(first, timeout=300)
        assert done["state"] == "done"
        events = len(service.manager.get(first).events)
        status, body = client._request(
            "POST", "/v1/jobs", {"kind": "sweep", "params": SWEEP})
        again = json.loads(body)
        assert (status, again["created"]) == (200, False)
        assert again["job"]["id"] == first
        # The finished job is the answer: no new job, no cell run.
        assert [job.id for job in service.manager.jobs()] == [first]
        assert len(service.manager.get(first).events) == events
        assert client.job(first)["cells"] == done["cells"]

    def test_faults_on_either_side_force_a_run(self, client):
        faulted = dict(SWEEP, faults="stall-cell=0:0.01")
        runs = []
        for params in (faulted, SWEEP, faulted):
            submitted = client.submit("sweep", params)
            job = client.wait(submitted["job"]["id"], timeout=300)
            runs.append((submitted["created"], job["state"],
                         job["cells"]["executed"]))
        # The clean spec finds only a faulted done job; the second
        # faulted submission asks for the run despite a clean one.
        assert runs == [(True, "done", 2)] * 3


class TestCatalogEndpoint:
    def test_matches_cli_attacks_json(self, client, capsys):
        assert main(["attacks", "--list", "--format", "json"]) == 0
        cli_payload = json.loads(capsys.readouterr().out)
        assert client.catalog_attacks() == cli_payload

    def test_catalog_schema(self, client):
        payload = client.catalog_attacks()
        assert set(payload) == {"attacks", "victim_policies", "roles",
                                "usage"}
        names = [entry["name"] for entry in payload["attacks"]]
        assert names == sorted(names)
        assert "spam" in names and "withhold" in names
        for entry in payload["attacks"]:
            assert set(entry) == {"name", "role", "channel", "detection",
                                  "default_param", "param_doc",
                                  "requires_membership", "impl"}
            assert entry["role"] in payload["roles"]
        assert "random" in payload["victim_policies"]


class TestErrorPaths:
    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as exc:
            client.job("j9999")
        assert exc.value.status == 404

    def test_result_before_done_is_409(self, client):
        # A cancelled-while-queued job is terminal but not done.
        running = client.submit("sweep", RESUME)["job"]["id"]
        queued = client.submit("sweep", SWEEP)["job"]["id"]
        client.cancel(queued)
        with pytest.raises(ServiceError) as exc:
            client.result(queued)
        assert exc.value.status == 409
        client.cancel(running)
        client.wait(running, timeout=300)

    def test_invalid_specs_are_400(self, client):
        for kind, params in (
                ("frobnicate", {}),
                ("sweep", {"protocols": ["no-such-protocol"]}),
                ("sweep", {"frobnicate": 1}),
                ("run", {"num_seeds": 3}),  # a run is a single cell
                ("figure", {"id": "no-such-figure"}),
                ("table", {"id": "table1", "scale": "no-such-scale"}),
                ("figure", {"id": "fig5", "shards": 2}),
                ("sweep", {"faults": "shard-exit=0@1"}),
        ):
            with pytest.raises(ServiceError) as exc:
                client.submit(kind, params)
            assert exc.value.status == 400, (kind, params)

    @pytest.mark.parametrize("kind, params, field", [
        ("sweep", {"nodes": "abc"}, "nodes"),
        ("sweep", {"loss": "x"}, "loss"),
        ("sweep", {"num_seeds": 2.5}, "num_seeds"),
        ("sweep", {"audit": "no"}, "audit"),  # not run with the audit on
        ("run", {"frobnicate": 1}, "frobnicate"),
        ("figure", {"id": "fig5", "shards": "two"}, "shards"),
    ])
    def test_malformed_params_answer_400_naming_the_field(
            self, service, kind, params, field):
        from repro.service.api import handle_request

        body = json.dumps({"kind": kind, "params": params}).encode("utf-8")
        response = handle_request(service.manager, "POST", "/v1/jobs", body)
        assert response.status == 400
        assert field in json.loads(response.body)["error"]
        assert service.manager.jobs() == []

    def test_crash_cell_without_a_pool_is_400_at_submit(self, service):
        """crash-cell kills a pool worker: a serial grid (the default
        --grid-jobs 1) cannot inject it, so submit refuses it before a
        job exists or a failure counts toward quarantine."""
        from repro.service.api import handle_request

        for kind, params in (
                ("sweep", dict(SWEEP, faults="crash-cell=0")),
                ("run", dict(SWEEP, num_seeds=1, faults="crash-cell=0"))):
            body = json.dumps({"kind": kind, "params": params}).encode("utf-8")
            response = handle_request(service.manager, "POST", "/v1/jobs",
                                      body)
            assert response.status == 400, (kind, response.body)
            assert "crash-cell" in json.loads(response.body)["error"]
        assert service.manager.jobs() == []
        assert service.manager.quarantined_count() == 0

    def test_crash_cell_on_one_cell_is_refused_with_a_pool(self, tmp_path):
        manager = JobManager(checkpoint_dir=str(tmp_path / "svc"),
                             executors=1, grid_jobs=2)
        try:
            with pytest.raises(ValueError, match="1 cell"):
                manager.submit("sweep", dict(SWEEP, num_seeds=1,
                                             faults="crash-cell=0"))
            assert manager.jobs() == []
        finally:
            manager.shutdown()

    @pytest.mark.parametrize("declared, status", [
        ("abc", 400),       # used to raise out of the handler
        ("-5", 400),        # used to block in rfile.read(-5)
        ("2000000", 413),   # nothing bounded the buffered body
    ])
    def test_bad_content_length_is_a_structured_error(self, service,
                                                      declared, status):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", service.port,
                                          timeout=10.0)
        try:
            conn.putrequest("POST", "/v1/jobs")
            conn.putheader("Content-Length", declared)
            conn.endheaders()  # no body: the header alone is answered
            response = conn.getresponse()
            assert response.status == status
            assert declared in json.loads(response.read())["error"]
        finally:
            conn.close()
        assert service.manager.jobs() == []

    def test_a_stalled_body_is_a_408_and_frees_its_thread(
            self, service, client, monkeypatch):
        """A client that announces a body and stops sending used to hold
        a server thread forever; it now gets a JSON 408 once the socket
        timeout passes, and the server keeps serving."""
        import socket
        import threading
        import time

        from repro.service.http import ServiceHandler

        monkeypatch.setattr(ServiceHandler, "timeout", 0.5)
        before = threading.active_count()
        stalled = []
        for _ in range(3):
            sock = socket.create_connection(("127.0.0.1", service.port),
                                            timeout=10.0)
            sock.sendall(b"POST /v1/jobs HTTP/1.0\r\n"
                         b"Content-Length: 100\r\n\r\n" + b'{"kind": "')
            stalled.append(sock)
        for sock in stalled:
            with sock, sock.makefile("rb") as reply:
                status = reply.readline()
                assert status.split()[1] == b"408", status
                head, _, body = reply.read().partition(b"\r\n\r\n")
                assert b"application/json" in head
                assert "did not arrive" in json.loads(body)["error"]
        deadline = time.monotonic() + 5.0
        while (threading.active_count() > before
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert threading.active_count() <= before
        assert client.health()["status"] == "ok"
        assert service.manager.jobs() == []

    @pytest.mark.parametrize("depth", [1000, 5000])
    def test_deeply_nested_body_is_a_400(self, service, client, depth):
        """A small body nested past the decoder's recursion limit used to
        raise out of the handler and drop the connection unanswered."""
        import http.client

        body = b"[" * depth + b"]" * depth
        conn = http.client.HTTPConnection("127.0.0.1", service.port,
                                          timeout=10.0)
        try:
            conn.request("POST", "/v1/jobs", body=body)
            response = conn.getresponse()
            assert response.status == 400
            error = json.loads(response.read())["error"]
            assert error.startswith("request body is not JSON")
        finally:
            conn.close()
        assert service.manager.jobs() == []
        assert client.health()["status"] == "ok"

    @pytest.mark.parametrize("body, error", [
        # JSON 1e999 decodes to inf: a drain that never ends.
        (b'{"kind": "run", "params": {"nodes": 20, "seconds": 2, '
         b'"drain": 1e999}}', "must be finite: drain"),
        # A typoed key used to start the default 16-cell grid.
        (b'{"kind": "sweep", "parms": {"nodes": 20}}',
         "unknown request key(s) parms"),
        (b'{"kind": "sweep", "params": []}', '"params" must be an object'),
        (b'{"kind": "sweep", "params": 0}', '"params" must be an object'),
        (b'{"kind": "sweep", "params": false}', '"params" must be an object'),
        (b'{"kind": "run", "params": {"nodes": 20, "nodes": 30}}',
         "duplicate key 'nodes'"),
        (b'{"kind": "run", "params": {"drain": NaN}}',
         "NaN is not a JSON number"),
        (b'{"kind": "run", "params": {"drain": -Infinity}}',
         "-Infinity is not a JSON number"),
    ])
    def test_bodies_that_would_run_the_wrong_job_are_400(
            self, service, client, body, error):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", service.port,
                                          timeout=10.0)
        try:
            conn.request("POST", "/v1/jobs", body=body)
            response = conn.getresponse()
            assert response.status == 400
            assert error in json.loads(response.read())["error"]
        finally:
            conn.close()
        assert service.manager.jobs() == []
        assert client.health()["status"] == "ok"

    def test_health_endpoint(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert set(health["jobs"]) == {"queued", "running", "done",
                                       "failed", "cancelled"}


class TestJobSpec:
    """Unit coverage of the spec/fingerprint layer (no HTTP)."""

    @pytest.mark.parametrize("field", ["seconds", "drain", "loss",
                                       "churn_fraction", "churn_time",
                                       "latency_floor"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_params_are_refused(self, field, value):
        with pytest.raises(ValueError, match=f"must be finite: {field}"):
            JobSpec("run", {field: value}).normalized()

    def test_run_and_equivalent_sweep_share_a_fingerprint(self):
        run = JobSpec("run", {"protocols": ["heap"], "nodes": 10,
                              "seconds": 2.0, "drain": 4.0})
        sweep = JobSpec("sweep", {"protocols": ["heap"], "nodes": 10,
                                  "seconds": 2.0, "drain": 4.0,
                                  "num_seeds": 1})
        assert run.fingerprint() == sweep.fingerprint()

    def test_execution_knobs_do_not_change_the_fingerprint(self):
        a = JobSpec("sweep", {"protocols": "heap", "nodes": 10,
                              "seconds": 2.0, "drain": 4.0})
        b = JobSpec("sweep", {"protocols": ["heap"], "nodes": 10,
                              "seconds": 2.0, "drain": 4.0})
        assert a.fingerprint() == b.fingerprint()  # list/CSV normalize
        c = JobSpec("sweep", {"protocols": ["heap"], "nodes": 20,
                              "seconds": 2.0, "drain": 4.0})
        assert c.fingerprint() != a.fingerprint()

    def test_unknown_parameters_raise(self):
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            JobSpec("sweep", {"frobnicate": 1}).normalized()
        with pytest.raises(ValueError, match="unknown job kind"):
            JobSpec("frobnicate", {}).normalized()
        with pytest.raises(ValueError, match="unknown figure id"):
            JobSpec("figure", {"id": "nope"}).normalized()


class TestLayering:
    def test_a_figure_job_never_imports_the_cli(self, tmp_path):
        """The engine does not depend on its front end: validating and
        running a render job leaves ``repro.cli`` unimported."""
        import subprocess

        import repro

        task = ("figure", {"id": "fig5", "scale": "quick"},
                str(tmp_path / "job.jsonl"), str(tmp_path / "job.csv"), 1)
        code = ("import sys\n"
                "import repro.service\n"
                "from repro.service.jobs import JobSpec, _run_job\n"
                f"task = {task!r}\n"
                "JobSpec(*task[:2]).fingerprint()\n"
                "assert 'Fig 5' in _run_job(task, lambda frame: None)"
                "['render']\n"
                "assert 'repro.cli' not in sys.modules\n")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                       env=dict(os.environ, PYTHONPATH=src))


class TestQueueBounds:
    def test_full_queue_rejects_with_queue_full_error(self, tmp_path):
        manager = JobManager(checkpoint_dir=str(tmp_path / "svc"),
                             executors=1, queue_size=1)
        try:
            first, _ = manager.submit("sweep", RESUME)
            # Wait until the executor has dequeued the first job, so the
            # queue slot is deterministically free for the second.
            for _ in range(600):
                if first.state != "queued":
                    break
                manager.events_since(first, 1, timeout=0.1)
            assert first.state == "running"
            queued, _ = manager.submit("sweep", SWEEP)  # fills the slot
            with pytest.raises(QueueFullError):
                manager.submit("sweep", dict(SWEEP, nodes=12))
            # A job cancelled while queued gives its slot back at once,
            # though it stays in the executor's queue until dequeued.
            manager.cancel(queued.id)
            _, created = manager.submit("sweep", dict(SWEEP, nodes=12))
            assert created
        finally:
            manager.shutdown(cancel_running=True)


class TestArtifactIndex:
    def test_index_lists_csv_after_completion(self, client):
        job_id = client.submit("sweep", SWEEP)["job"]["id"]
        assert client.wait(job_id, timeout=300)["state"] == "done"
        index = client.artifacts(job_id)
        assert index["job"] == job_id and index["state"] == "done"
        (entry,) = index["artifacts"]
        assert entry["name"] == "csv"
        assert entry["content_type"] == "text/csv"
        assert entry["bytes"] > 0
        # The advertised path fetches the artifact, and the size is honest.
        csv_text = client.csv(job_id)
        assert entry["path"] == f"/v1/jobs/{job_id}/artifacts/csv"
        assert len(csv_text.encode("utf-8")) == entry["bytes"]

    def test_index_empty_before_artifacts_exist(self, client):
        running = client.submit("sweep", RESUME)["job"]["id"]
        queued = client.submit("sweep", SWEEP)["job"]["id"]
        try:
            index = client.artifacts(queued)
            assert index["artifacts"] == []
        finally:
            client.cancel(queued)
            client.cancel(running)
            client.wait(running, timeout=300)


class TestSupervision:
    """Self-healing job plane: watchdog, TTL eviction, quarantine."""

    def _wait_state(self, job, states, timeout=30.0):
        deadline = time.monotonic() + timeout
        while job.state not in states:
            assert time.monotonic() < deadline, (job.state, states)
            time.sleep(0.05)

    def test_watchdog_fails_wedged_job_and_staffs_replacement(self, tmp_path):
        manager = JobManager(checkpoint_dir=str(tmp_path / "svc"),
                             executors=1, job_timeout=0.6,
                             watchdog_interval=0.1)
        try:
            wedged, _ = manager.submit(
                "sweep", dict(SWEEP, faults="stall-cell=0:30"))
            self._wait_state(wedged, ("failed",))
            assert "watchdog" in wedged.error
            assert manager.watchdog_timeouts == 1
            # The wedged executor was written off; a replacement keeps
            # the manager serving new jobs.
            healthy, created = manager.submit("sweep", SWEEP)
            assert created
            self._wait_state(healthy, ("done",), timeout=60.0)
        finally:
            manager.shutdown(cancel_running=True)

    @staticmethod
    def _still_executing(pids) -> bool:
        """Is anything still running a job: one of the child processes
        in ``pids``, or an executor thread inside the grid engine?"""
        if pids & {child.pid for child in multiprocessing.active_children()}:
            return True
        executors = {thread.ident for thread in threading.enumerate()
                     if thread.name.startswith("repro-job-executor")}
        engine = os.path.join("experiments", "parallel.py")
        for ident, frame in sys._current_frames().items():
            while ident in executors and frame is not None:
                if frame.f_code.co_filename.endswith(engine):
                    return True
                frame = frame.f_back
        return False

    def test_watchdog_failed_job_stops_executing(self, tmp_path):
        manager = JobManager(checkpoint_dir=str(tmp_path / "svc"),
                             executors=1, job_timeout=0.6,
                             watchdog_interval=0.1)
        try:
            wedged, _ = manager.submit(
                "sweep", dict(SWEEP, faults="stall-cell=0:30"))
            self._wait_state(wedged, ("running", "failed"))
            children = {child.pid
                        for child in multiprocessing.active_children()}
            self._wait_state(wedged, ("failed",))
            # Failed means stopped: not still sleeping out its 30 s stall
            # (and appending to the checkpoint a resubmission reopens).
            deadline = time.monotonic() + 2.0
            while self._still_executing(children):
                assert time.monotonic() < deadline
                time.sleep(0.05)
        finally:
            started = time.monotonic()
            manager.shutdown(cancel_running=True)
            assert time.monotonic() - started < 5.0

    def test_cancel_kills_a_running_job_mid_cell(self, tmp_path):
        manager = JobManager(checkpoint_dir=str(tmp_path / "svc"),
                             executors=1)
        try:
            stalled, _ = manager.submit(
                "sweep", dict(SWEEP, num_seeds=1, faults="stall-cell=0:30"))
            self._wait_state(stalled, ("running",))
            manager.cancel(stalled.id)
            # Not "at the next finished cell" — that is 30 s away.
            self._wait_state(stalled, ("cancelled",), timeout=2.0)
            # The slot is staffed again: the next job runs at once.
            healthy, _ = manager.submit("sweep", SWEEP)
            self._wait_state(healthy, ("done",), timeout=20.0)
        finally:
            manager.shutdown(cancel_running=True)

    def test_render_jobs_run_side_by_side(self, tmp_path):
        """Two executors make progress on two render jobs at the same
        time — no process-wide render lock serialises them."""
        manager = JobManager(checkpoint_dir=str(tmp_path / "svc"),
                             executors=2)
        try:
            a, _ = manager.submit("table", {"id": "table3",
                                            "scale": "quick"})
            b, _ = manager.submit("figure", {"id": "fig2",
                                             "scale": "quick"})
            deadline = time.monotonic() + 120.0
            while not (a.state == b.state == "running"
                       and a.cells_done >= 1 and b.cells_done >= 1):
                assert a.state in ("queued", "running"), (a.state, a.error)
                assert b.state in ("queued", "running"), (b.state, b.error)
                assert time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            manager.shutdown(cancel_running=True)

    @pytest.mark.parametrize("secs", [0, -3])
    @pytest.mark.parametrize("knob", ["job_timeout", "job_ttl"])
    def test_non_positive_time_limits_are_refused(self, tmp_path, knob,
                                                  secs):
        # A 0 s watchdog failed every job; a 0 s TTL evicted each job
        # the moment it finished.
        with pytest.raises(ValueError, match=f"{knob} must be positive"):
            JobManager(checkpoint_dir=str(tmp_path / "svc"), **{knob: secs})
        assert not (tmp_path / "svc").exists()

    def test_serve_refuses_a_zero_job_timeout_before_binding(
            self, tmp_path, monkeypatch, capsys):
        import repro.service
        from repro.cli import main

        def bind(*args, **kwargs):
            raise AssertionError("serve bound a port")

        monkeypatch.setattr(repro.service, "ExperimentService", bind)
        assert main(["serve", "--port", "0", "--job-timeout", "0",
                     "--checkpoint-dir", str(tmp_path / "svc")]) == 2
        assert capsys.readouterr().err.startswith(
            "error: job_timeout must be positive")

    def test_ttl_evicts_terminal_jobs(self, tmp_path):
        manager = JobManager(checkpoint_dir=str(tmp_path / "svc"),
                             executors=1, job_ttl=0.3,
                             watchdog_interval=0.05)
        svc = ExperimentService(manager, port=0)
        svc.serve_background()
        client = ServiceClient(svc.url, timeout=60.0)
        try:
            job_id = client.submit("sweep", SWEEP)["job"]["id"]
            client.wait(job_id, timeout=300)
            csv_path = manager.get(job_id).csv_path
            deadline = time.monotonic() + 30.0
            while True:
                try:
                    client.job(job_id)
                except ServiceError as exc:
                    assert exc.status == 404
                    assert "was evicted" in exc.message
                    assert "--job-ttl" in exc.message
                    break
                assert time.monotonic() < deadline
                time.sleep(0.05)
            assert not os.path.exists(csv_path)  # artifact went with it
            assert client.health()["evicted"] == 1
        finally:
            svc.close()

    def test_crash_looping_spec_quarantined_with_retry_after(self, tmp_path):
        manager = JobManager(checkpoint_dir=str(tmp_path / "svc"),
                             executors=1, quarantine_after=1,
                             quarantine_base=60.0)
        svc = ExperimentService(manager, port=0)
        svc.serve_background()
        client = ServiceClient(svc.url, timeout=60.0)
        # torn-checkpoint aborts the grid after its first checkpointed
        # cell, so every run of this spec fails deterministically.
        poison = dict(SWEEP, faults="torn-checkpoint=1")
        try:
            job_id = client.submit("sweep", poison)["job"]["id"]
            assert client.wait(job_id, timeout=300)["state"] == "failed"
            assert client.health()["quarantined"] == 1
            # Manager level: structured exception.
            with pytest.raises(SpecQuarantined) as exc:
                manager.submit("sweep", poison)
            assert exc.value.retry_after > 0
            assert exc.value.failures == 1
            # HTTP level: 429 plus a Retry-After header.
            request = urllib.request.Request(
                svc.url + "/v1/jobs",
                data=json.dumps({"kind": "sweep",
                                 "params": poison}).encode("utf-8"),
                headers={"Content-Type": "application/json"}, method="POST")
            with pytest.raises(urllib.error.HTTPError) as http_exc:
                with urllib.request.urlopen(request, timeout=30.0):
                    pass
            assert http_exc.value.code == 429
            assert int(http_exc.value.headers["Retry-After"]) >= 1
            body = json.loads(http_exc.value.read().decode("utf-8"))
            assert "quarantined" in body["error"]
            assert body["retry_after"] >= 1
        finally:
            svc.close()

    def test_quarantine_is_per_fingerprint_and_clears_on_success(
            self, tmp_path):
        manager = JobManager(checkpoint_dir=str(tmp_path / "svc"),
                             executors=1, quarantine_after=1,
                             quarantine_base=60.0)
        try:
            # The faulted and clean specs share a fingerprint (faults are
            # an execution circumstance), so the quarantine would block
            # the clean resubmission too — until a success clears it.
            poison, _ = manager.submit(
                "sweep", dict(SWEEP, faults="torn-checkpoint=1"))
            self._wait_state(poison, ("failed",))
            with pytest.raises(SpecQuarantined):
                manager.submit("sweep", SWEEP)
            # A *different* spec is unaffected.
            other, _ = manager.submit("sweep", dict(SWEEP, nodes=12))
            self._wait_state(other, ("done",), timeout=60.0)
        finally:
            manager.shutdown(cancel_running=True)


def _run_job_and_probe(task, emit):
    """Executor-child runner: :func:`_run_job`, then which of the run
    results it made are gone from this process."""
    import weakref

    from repro.experiments.runner import ScenarioBuild

    refs = []
    harvest_result = ScenarioBuild.result

    def result(build):
        made = harvest_result(build)
        refs.append(weakref.ref(made))
        return made

    ScenarioBuild.result = result
    try:
        _run_job(task, emit)
    finally:
        ScenarioBuild.result = harvest_result
    return [ref() is None for ref in refs]


class TestExecutorKeepsNoResult:
    def test_a_run_jobs_result_dies_in_its_executor(self, tmp_path):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        supervisor = Supervisor(multiprocessing.get_context("fork"),
                                target=task_worker, name="probe-executor")
        try:
            child = supervisor.spawn(_run_job_and_probe)
            task = ("run", dict(SWEEP, num_seeds=1),
                    str(tmp_path / "job.jsonl"), str(tmp_path / "job.csv"), 1)
            child.conn.send((task, None))
            reply = None
            while reply is None:
                for _child, kind, frame in supervisor.wait([child], 60.0):
                    assert kind == "message", (kind, frame)
                    if frame[0] != "progress":
                        reply = frame
            assert reply == ("ok", [True]), reply
        finally:
            supervisor.close()


class TestSseDisconnects:
    def test_client_disconnect_is_counted_not_crashed(self, service, client):
        job_id = client.submit("sweep", RESUME)["job"]["id"]
        try:
            # Open the SSE stream raw, read one chunk, hang up mid-job.
            stream = urllib.request.urlopen(
                f"{service.url}/v1/jobs/{job_id}/events", timeout=30.0)
            stream.readline()
            stream.close()
            deadline = time.monotonic() + 30.0
            while client.health()["sse_disconnects"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.1)
        finally:
            client.cancel(job_id)
            client.wait(job_id, timeout=300)
        # The stream thread died quietly; the service still answers.
        assert client.health()["status"] == "ok"
