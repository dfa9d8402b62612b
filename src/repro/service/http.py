"""The socket shell: ``ThreadingHTTPServer`` + the SSE stream writer.

Everything interesting happens a layer down — request dispatch in
:mod:`repro.service.api`, job state in :mod:`repro.service.jobs`.  This
module only moves bytes: it reads a request, hands it to
``handle_request`` and writes back either the returned
:class:`~repro.service.api.ApiResponse` or, for the events route, a
``text/event-stream`` that replays the job's event log from the start
and then follows it live until a terminal state event.

The server speaks HTTP/1.0 with connection-close framing on purpose:
every response (including the unbounded SSE body) is delimited by the
connection, so no chunked encoding and no keep-alive bookkeeping.  Each
connection gets its own daemon thread, so a slow SSE consumer never
blocks submissions, and every socket read or write of a connection gives
up after :data:`REQUEST_TIMEOUT_S` seconds, so a client that stalls
mid-request (or stops reading an SSE stream) cannot hold its thread
forever: a body that does not arrive in time is answered 408.
"""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.service.api import (ApiResponse, SseStream, error_response,
                               handle_request)
from repro.service.jobs import Job, JobManager, TERMINAL_STATES

#: Largest request body the server will buffer (job specs are a few
#: hundred bytes; anything near this is not one).
MAX_BODY_BYTES = 1 << 20

#: Seconds one socket read or write may wait before the server gives up
#: on the connection (a request line, a header, a body, an SSE frame).
REQUEST_TIMEOUT_S = 10.0

#: Comment frame sent while a followed job is idle, so dead client
#: connections surface as write errors instead of leaking threads.
_KEEPALIVE = b": keepalive\n\n"


class ServiceHandler(BaseHTTPRequestHandler):
    """One request: parse, dispatch, write the response (or stream)."""

    protocol_version = "HTTP/1.0"
    server_version = "repro-service/1"
    #: ``StreamRequestHandler`` applies this to the connection's socket.
    timeout = REQUEST_TIMEOUT_S

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not getattr(self.server, "quiet", True):
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._handle("POST")

    def _handle(self, method: str) -> None:
        outcome = self._read_and_dispatch(method)
        try:
            if isinstance(outcome, SseStream):
                self._stream_events(outcome.job)
            else:
                self._send(outcome)
        except (BrokenPipeError, ConnectionResetError, TimeoutError):
            # Client went away (or stopped reading) mid-response.  For an
            # SSE stream that is the *normal* way a subscription ends
            # (the consumer simply closes), so count it for /v1/health
            # and move on — never let it surface as a thread-killing
            # traceback.
            if isinstance(outcome, SseStream):
                self.server.manager.note_sse_disconnect()

    def _read_and_dispatch(self, method: str):
        """Read the body ``Content-Length`` announces and dispatch the
        request; a length that is no count of bytes, or too many, is
        answered without reading anything, and a body that stalls for
        the handler's ``timeout`` is answered 408."""
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            return error_response(
                400, f"Content-Length must be a non-negative integer, "
                     f"got {declared!r}")
        if length > MAX_BODY_BYTES:
            return error_response(
                413, f"request body of {length} bytes exceeds the "
                     f"{MAX_BODY_BYTES}-byte limit")
        try:
            body: Optional[bytes] = self.rfile.read(length) if length else None
        except TimeoutError:
            return error_response(
                408, f"request body of {length} bytes did not arrive "
                     f"within {self.timeout} s")
        return handle_request(self.server.manager, method, self.path, body)

    def _send(self, response: ApiResponse) -> None:
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        for name, value in response.headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(response.body)

    def _stream_events(self, job: Job) -> None:
        """Replay ``job``'s event log as SSE, then follow it live.

        Every frame is ``event: <type>`` + ``data: <json>``; the stream
        ends (connection close) after a state event that enters a
        terminal state, so a client can simply read to EOF.
        """
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()
        manager: JobManager = self.server.manager
        index = 0
        while True:
            events = manager.events_since(job, index, timeout=0.5)
            if not events:
                self.wfile.write(_KEEPALIVE)
                self.wfile.flush()
                continue
            index += len(events)
            finished = False
            for event in events:
                frame = (f"event: {event['type']}\n"
                         f"data: {json.dumps(event)}\n\n")
                self.wfile.write(frame.encode("utf-8"))
                if (event.get("type") == "state"
                        and event.get("state") in TERMINAL_STATES):
                    finished = True
            self.wfile.flush()
            if finished:
                return


class ExperimentService(ThreadingHTTPServer):
    """The control plane's HTTP front: one server around one manager.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`),
    which is how the tests run hermetically.  ``close()`` tears down the
    listener *and* the manager; managed checkpoints of unfinished jobs
    stay on disk by design, so a restarted service resumes resubmitted
    specs.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, manager: JobManager, host: str = "127.0.0.1",
                 port: int = 0, quiet: bool = True):
        self.manager = manager
        self.quiet = quiet
        self._thread: Optional[threading.Thread] = None
        super().__init__((host, port), ServiceHandler)

    def handle_error(self, request, client_address) -> None:
        """Silence client-disconnect noise from the handler machinery.

        ``BaseHTTPRequestHandler.finish()`` flushes the socket *after*
        the handler returns, so a client that disconnected during an SSE
        stream can still raise ``BrokenPipeError`` outside the
        handler's own try/except — which ``socketserver`` would print
        as a full traceback per disconnect.  Those are expected (and
        already counted by the handler); drop them.  Everything else
        keeps the default report."""
        exc = sys.exc_info()[1]
        if isinstance(exc, (BrokenPipeError, ConnectionResetError,
                            TimeoutError)):
            return
        super().handle_error(request, client_address)

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.server_address[0]}:{self.port}"

    def serve_background(self) -> threading.Thread:
        """Run ``serve_forever`` on a daemon thread and return it."""
        self._thread = threading.Thread(target=self.serve_forever,
                                        daemon=True,
                                        name="repro-service-http")
        self._thread.start()
        return self._thread

    def close(self, cancel_running: bool = True) -> None:
        if self._thread is not None and self._thread.is_alive():
            self.shutdown()
            self._thread.join(timeout=10.0)
        self.server_close()
        self.manager.shutdown(cancel_running=cancel_running)
