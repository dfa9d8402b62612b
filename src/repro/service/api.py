"""HTTP/JSON API surface of the service, framework- and socket-free.

``handle_request`` maps ``(method, path, body)`` onto the
:class:`~repro.service.jobs.JobManager` and returns either a
:class:`ApiResponse` (status + bytes) or a :class:`SseStream` marker
telling the transport layer to stream the named job's event log as
Server-Sent Events.  Keeping this pure makes the whole API unit-testable
without binding a port, and keeps :mod:`repro.service.http` a dumb
shell.

Routes (all JSON unless noted)::

    POST /v1/jobs                  {"kind": ..., "params": {...}} -> job
    GET  /v1/jobs                  all jobs, submission order
    GET  /v1/jobs/{id}             one job's status
    POST /v1/jobs/{id}/cancel      request cancellation
    GET  /v1/jobs/{id}/events      live progress (SSE)
    GET  /v1/jobs/{id}/result      result summary JSON (409 until done)
    GET  /v1/jobs/{id}/artifacts   artifact index (names, sizes, types)
    GET  /v1/jobs/{id}/artifacts/csv   CSV artifact (text/csv)
    GET  /v1/catalog/attacks       the attack catalog (= CLI --format json)
    GET  /v1/health                liveness + job state counts + supervision

A quarantined spec (same fingerprint crash-looping) answers 429 with a
``Retry-After`` header; an id evicted by ``--job-ttl`` answers 404 with
the eviction reason in the error body.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.service.jobs import (Job, JobManager, QueueFullError,
                                SpecQuarantined)


class ApiError(Exception):
    """An error with an HTTP status (rendered as a JSON body)."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass(frozen=True)
class ApiResponse:
    """A complete response: status, body bytes and content type."""

    status: int
    body: bytes
    content_type: str = "application/json"
    #: Extra response headers, e.g. ``(("Retry-After", "30"),)``.
    headers: Tuple[Tuple[str, str], ...] = ()


@dataclass(frozen=True)
class SseStream:
    """Marker: the transport should stream this job's events as SSE."""

    job: Job


def json_response(obj: object, status: int = 200,
                  headers: Tuple[Tuple[str, str], ...] = ()) -> ApiResponse:
    body = (json.dumps(obj, indent=2, sort_keys=False) + "\n").encode("utf-8")
    return ApiResponse(status=status, body=body, headers=headers)


def error_response(status: int, message: str) -> ApiResponse:
    return json_response({"error": message}, status=status)


def handle_request(manager: JobManager, method: str, path: str,
                   body: Optional[bytes] = None):
    """Dispatch one request; returns ApiResponse or SseStream.

    Raises nothing: every failure becomes an error response, so the
    transport layer never has to translate exceptions.
    """
    try:
        return _dispatch(manager, method, path, body)
    except ApiError as exc:
        return error_response(exc.status, exc.message)


def _dispatch(manager: JobManager, method: str, path: str,
              body: Optional[bytes]):
    parts = tuple(p for p in path.split("?", 1)[0].split("/") if p)
    if parts == ("v1", "health"):
        _require(method, "GET")
        return json_response({
            "status": "ok",
            "jobs": manager.counts(),
            "sse_disconnects": manager.sse_disconnects,
            "watchdog_timeouts": manager.watchdog_timeouts,
            "evicted": manager.evicted_count(),
            "quarantined": manager.quarantined_count(),
        })
    if parts == ("v1", "catalog", "attacks"):
        _require(method, "GET")
        from repro.adversary import catalog_jsonable

        return json_response(catalog_jsonable())
    if parts == ("v1", "jobs"):
        if method == "POST":
            return _submit(manager, body)
        _require(method, "GET")
        return json_response(
            {"jobs": [job.to_jsonable() for job in manager.jobs()]})
    if len(parts) >= 3 and parts[:2] == ("v1", "jobs"):
        job = _job(manager, parts[2])
        tail = parts[3:]
        if not tail:
            _require(method, "GET")
            return json_response({"job": job.to_jsonable()})
        if tail == ("cancel",):
            _require(method, "POST")
            return json_response({"job": manager.cancel(job).to_jsonable()})
        if tail == ("events",):
            _require(method, "GET")
            return SseStream(job)
        if tail == ("result",):
            _require(method, "GET")
            return _result(job)
        if tail == ("artifacts",):
            _require(method, "GET")
            return _artifact_index(job)
        if tail == ("artifacts", "csv"):
            _require(method, "GET")
            return _csv_artifact(job)
    raise ApiError(404, f"no such route: {method} {path}")


def _require(method: str, expected: str) -> None:
    if method != expected:
        raise ApiError(405, f"method {method} not allowed here")


def _job(manager: JobManager, job_id: str) -> Job:
    try:
        return manager.get(job_id)
    except KeyError:
        reason = manager.eviction_reason(job_id)
        if reason is not None:
            raise ApiError(404, f"job {job_id!r} was evicted: "
                                f"{reason}") from None
        raise ApiError(404, f"unknown job {job_id!r}") from None


def _unique_keys(pairs) -> dict:
    """``object_pairs_hook``: a JSON object whose keys are all distinct
    (the decoder would otherwise keep the last of a repeated key)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ApiError(400, f"duplicate key {key!r} in request body")
        obj[key] = value
    return obj


def _no_constant(name: str):
    """``parse_constant``: ``NaN`` / ``Infinity`` are not JSON numbers."""
    raise ApiError(400, f"{name} is not a JSON number")


_SUBMIT_KEYS = ("kind", "params")
_SUBMIT_SHAPE = 'request body must be {"kind": ..., "params": {...}}'


def _submit(manager: JobManager, body: Optional[bytes]) -> ApiResponse:
    if not body:
        raise ApiError(400, "missing request body")
    try:
        payload = json.loads(body.decode("utf-8"),
                             object_pairs_hook=_unique_keys,
                             parse_constant=_no_constant)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nested deeper than the decoder's stack allows.
        raise ApiError(400, f"request body is not JSON: {exc}") from None
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ApiError(400, _SUBMIT_SHAPE)
    unknown = sorted(set(payload) - set(_SUBMIT_KEYS))
    if unknown:
        # A typo such as "parms" must not run the default experiment.
        raise ApiError(400, f"unknown request key(s) {', '.join(unknown)}; "
                            + _SUBMIT_SHAPE)
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ApiError(400, '"params" must be an object, not '
                            f"{type(params).__name__}")
    try:
        job, created = manager.submit(str(payload["kind"]), params)
    except SpecQuarantined as exc:
        # Crash-looping spec: tell the client when to come back.
        retry_after = max(1, int(exc.retry_after + 0.999))
        return json_response(
            {"error": str(exc), "retry_after": retry_after},
            status=429, headers=(("Retry-After", str(retry_after)),))
    except QueueFullError as exc:
        raise ApiError(503, str(exc)) from None
    except (ValueError, KeyError) as exc:
        raise ApiError(400, str(exc)) from None
    return json_response({"job": job.to_jsonable(), "created": created},
                         status=201 if created else 200)


def _result(job: Job) -> ApiResponse:
    if job.state != "done":
        raise ApiError(409, f"job {job.id} is {job.state}, not done"
                            + (f": {job.error}" if job.error else ""))
    return json_response({"job": job.to_jsonable(), "result": job.result})


def _artifact_index(job: Job) -> ApiResponse:
    """What this job has produced so far: name, fetch path, size, type.
    Valid in any state — the list is simply empty until artifacts
    exist."""
    artifacts = []
    try:
        size = os.path.getsize(job.csv_path)
    except OSError:
        size = None
    if size is not None:
        artifacts.append({
            "name": "csv",
            "path": f"/v1/jobs/{job.id}/artifacts/csv",
            "bytes": size,
            "content_type": "text/csv",
        })
    return json_response({"job": job.id, "state": job.state,
                          "artifacts": artifacts})


def _csv_artifact(job: Job) -> ApiResponse:
    if job.state != "done":
        raise ApiError(409, f"job {job.id} is {job.state}, not done")
    try:
        with open(job.csv_path, "rb") as fh:
            data = fh.read()
    except OSError:
        raise ApiError(404, f"job {job.id} has no CSV artifact") from None
    return ApiResponse(status=200, body=data, content_type="text/csv")
