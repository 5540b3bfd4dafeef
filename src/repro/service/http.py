"""Stdlib HTTP/JSON front end for the sweep service.

A thin :mod:`http.server` layer — no web framework, no new dependencies —
exposing the service over five routes:

==========================  =============================================
``GET  /health``            liveness, job count and queue depth
``GET  /metrics``           Prometheus exposition text (whole registry)
``POST /jobs``              submit (:class:`SweepJobSpec` JSON body)
``GET  /jobs``              all job records, submission order
``GET  /jobs/<id>``         one job's streamed status record
``GET  /jobs/<id>/result``  the finished NPZ payload (bytes)
==========================  =============================================

Submissions are validated synchronously: a bad grid name, override, or
config is a ``400`` with the error text, never a job that later flips to
``failed``.  A body longer than :data:`MAX_BODY_BYTES` is a ``413``, refused
unread.  The result route answers ``409`` while the job is still
queued/running/failed — poll ``/jobs/<id>`` until ``status == "done"``.

The server is a ``ThreadingHTTPServer`` so status polls answer while a
submission handler is blocked on the service lock; job *execution* stays in
the service's own worker thread, never in a request handler.  Status polls,
the listing and ``/health`` read the job store's in-memory index and open no
record file, and ``/health`` lists no directory (the cache's counters are
on ``/metrics``); the result route streams the payload file in fixed-size
chunks, so a download holds one chunk in memory, not the payload.  A client
that hangs up mid-download is counted in
``repro_service_dropped_downloads_total`` and prints nothing.
"""

from __future__ import annotations

import json
import os
import shutil
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from ..obs import CONTENT_TYPE as _METRICS_CONTENT_TYPE
from ..obs import REGISTRY, render_prometheus
from .service import SweepService
from .specs import SweepJobSpec

__all__ = ["MAX_BODY_BYTES", "make_server", "serve_forever"]

#: Longest ``POST /jobs`` body read.  A grid submission is a few hundred
#: bytes; this leaves room for thousands of explicit points.
MAX_BODY_BYTES = 16 * 1024 * 1024

_DROPPED_DOWNLOADS = REGISTRY.counter(
    "repro_service_dropped_downloads_total",
    "Result downloads the client hung up on before the last byte",
)


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to one :class:`SweepService` via the server."""

    server: "_ServiceServer"
    protocol_version = "HTTP/1.1"
    # Headers and body leave in two writes; with Nagle's algorithm on, a
    # kept-alive connection holds the body until the client's delayed ACK
    # (~40 ms).  TCP_NODELAY sends it at once.
    disable_nagle_algorithm = True

    # -- plumbing -----------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:  # pragma: no cover - log formatting only
            super().log_message(format, *args)

    def _send_json(self, payload: Any, status: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    # -- routes -------------------------------------------------------------

    def do_GET(self) -> None:
        service = self.server.service
        path = self.path.rstrip("/")
        if path in ("", "/health"):
            self._send_json(
                {
                    "status": "ok",
                    "jobs": len(service.store),
                    "queued": len(service.store.pending()),
                }
            )
            return
        if path == "/metrics":
            body = render_prometheus(REGISTRY).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", _METRICS_CONTENT_TYPE)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        if path == "/jobs":
            self._send_json({"jobs": [r.to_json() for r in service.list_jobs()]})
            return
        parts = path.lstrip("/").split("/")
        if len(parts) >= 2 and parts[0] == "jobs":
            record = service.status(parts[1])
            if record is None:
                self._send_error_json(404, f"unknown job {parts[1]!r}")
                return
            if len(parts) == 2:
                self._send_json(record.to_json())
                return
            if len(parts) == 3 and parts[2] == "result":
                if record.status != "done":
                    self._send_error_json(
                        409,
                        f"job {record.job_id} is {record.status}, not done",
                    )
                    return
                result_path = service.result_path(record.job_id)
                if result_path is None:  # pragma: no cover - defensive
                    self._send_error_json(500, "result payload missing")
                    return
                # streamed in fixed-size chunks: a payload can be gigabytes
                with result_path.open("rb") as payload:
                    self.send_response(200)
                    self.send_header("Content-Type", "application/octet-stream")
                    self.send_header(
                        "Content-Length", str(os.fstat(payload.fileno()).st_size)
                    )
                    self.end_headers()
                    try:
                        shutil.copyfileobj(payload, self.wfile)
                    except (BrokenPipeError, ConnectionResetError):
                        # the client hung up mid-body: no one is left to
                        # answer, and it is not the server's error to print
                        _DROPPED_DOWNLOADS.inc()
                        self.close_connection = True
                return
        self._send_error_json(404, f"no route for {self.path!r}")

    def do_POST(self) -> None:
        if self.path.rstrip("/") != "/jobs":
            self._send_error_json(404, f"no route for {self.path!r}")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            # rfile.read(-1) would block until the client hangs up; refuse
            # unread and drop the connection, whose body was never consumed.
            self.close_connection = True
            self._send_error_json(
                400, "bad submission: Content-Length must be a non-negative integer"
            )
            return
        if length > MAX_BODY_BYTES:
            # reading it would buffer the whole body: refuse it unread too
            self.close_connection = True
            self._send_error_json(
                413,
                f"bad submission: a body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
            return
        try:
            payload = json.loads(self.rfile.read(length) or b"{}")
            spec = SweepJobSpec.from_json(payload)
            record = self.server.service.submit(spec)
        except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
            self._send_error_json(400, f"bad submission: {exc}")
            return
        self._send_json(record.to_json(), status=201)


class _ServiceServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(
        self, address: tuple[str, int], service: SweepService, verbose: bool
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = verbose


def make_server(
    service: SweepService,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> _ServiceServer:
    """Bind the HTTP front end (``port=0`` picks a free port).

    The caller owns the lifecycle: ``serve_forever()`` (or a thread around
    it) to serve, ``shutdown()`` + ``server_close()`` to stop.  The bound
    port is ``server.server_address[1]``.
    """
    return _ServiceServer((host, port), service, verbose)


def serve_forever(
    service: SweepService,
    host: str = "127.0.0.1",
    port: int = 8321,
    verbose: bool = True,
) -> None:
    """Run service worker + HTTP server until interrupted (CLI entry)."""
    server = make_server(service, host=host, port=port, verbose=verbose)
    service.start()
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.shutdown()
        server.server_close()
        service.stop()
