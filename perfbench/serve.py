"""Drive one ``repro.cli serve`` process over HTTP, as a single client would.

A :class:`ServeProcess` is one service instance on a fresh root and port.
Its client has one request and one job outstanding (a closed loop):
``POST /jobs``, poll ``GET /jobs/<id>`` every ``POLL_SECONDS``, then
``GET /jobs/<id>/result``; a job's latency runs from the post until the last
result byte is read.

Each request opens its own connection, as the package's ``ServiceClient``
does.  On a kept-alive connection every response of this server stalls for
the client's delayed-ACK timer (~40 ms on Linux): the handler writes headers
and body in two segments and Nagle's algorithm holds the second.  That stall
would swamp every other layer of a small job, so it is measured on its own,
as ``service.keepalive_rtt_ms`` in the traced run.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Status poll interval: short next to a 40 ms job, long enough that the
#: polls do not starve the service's worker thread of the interpreter lock.
POLL_SECONDS = 0.005
JOB_TIMEOUT_SECONDS = 90.0
START_TIMEOUT_SECONDS = 30.0


class ServeError(RuntimeError):
    """The service did not start or stopped answering."""


@dataclass
class JobTiming:
    """One closed-loop job: its latency, outcome and returned payload."""

    job: dict[str, Any]
    latency_s: float
    record: dict[str, Any] = field(default_factory=dict)
    payload: bytes = b""
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.record.get("status") == "done"


def nproc() -> int:
    """CPUs this process may run on: the service's ``--jobs``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return int(probe.getsockname()[1])


def _dir_bytes(root: Path) -> int:
    total = 0
    for base, _, files in os.walk(root):
        for name in files:
            try:
                total += os.lstat(os.path.join(base, name)).st_size
            except OSError:
                pass
    return total


class ServeProcess:
    """A ``serve`` subprocess on ``root``; use as a context manager."""

    def __init__(self, repo: Path, root: Path, jobs: int) -> None:
        self.repo = repo
        self.root = root
        self.jobs = jobs
        self.port = _free_port()
        self.proc: subprocess.Popen[bytes] | None = None
        self.setup_s = float("nan")

    def __enter__(self) -> "ServeProcess":
        env = dict(os.environ)
        src = str(self.repo / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--root", str(self.root),
             "--port", str(self.port), "--jobs", str(self.jobs)],
            cwd=self.repo, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, start_new_session=True,
        )
        try:
            self._await_health(started)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def _await_health(self, started: float) -> None:
        assert self.proc is not None
        while time.perf_counter() - started < START_TIMEOUT_SECONDS:
            if self.proc.poll() is not None:
                raise ServeError(f"serve exited with code {self.proc.returncode}")
            try:
                status, _ = self.request("GET", "/health")
            except (OSError, http.client.HTTPException):
                time.sleep(0.002)
                continue
            if status == 200:
                return
        raise ServeError(f"serve not healthy after {START_TIMEOUT_SECONDS:.0f}s")

    def stop(self) -> None:
        """Kill the service and its pool workers, and reap the service."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        self.proc = None

    # -- HTTP ---------------------------------------------------------------

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=JOB_TIMEOUT_SECONDS)

    def request(
        self, method: str, path: str, body: bytes | None = None,
        conn: http.client.HTTPConnection | None = None,
    ) -> tuple[int, bytes]:
        """One request, on a new connection unless ``conn`` is given."""
        headers = {"Content-Type": "application/json"} if body is not None else {}
        own = conn is None
        if own:
            conn = self.connect()
            headers["Connection"] = "close"
        try:
            conn.request(method, path, body=body, headers=headers)
            answer = conn.getresponse()
            return answer.status, answer.read()
        finally:
            if own:
                conn.close()

    def run_job(self, job: dict[str, Any]) -> JobTiming:
        """Submit one job and wait for its result bytes."""
        body = json.dumps(job).encode()
        started = time.perf_counter()
        try:
            status, answer = self.request("POST", "/jobs", body)
            if status != 201:
                raise ServeError(f"POST /jobs answered {status}: {answer[:200]!r}")
            job_id = json.loads(answer)["job_id"]
            while True:
                status, answer = self.request("GET", f"/jobs/{job_id}")
                if status != 200:
                    raise ServeError(f"GET /jobs/{job_id} answered {status}")
                record = json.loads(answer)
                if record["status"] in ("done", "failed"):
                    break
                if time.perf_counter() - started > JOB_TIMEOUT_SECONDS:
                    raise ServeError(f"job {job_id} timed out")
                time.sleep(POLL_SECONDS)
            payload = b""
            if record["status"] == "done":
                status, payload = self.request("GET", f"/jobs/{job_id}/result")
                if status != 200:
                    raise ServeError(f"GET /jobs/{job_id}/result answered {status}")
        except (OSError, http.client.HTTPException, ServeError, ValueError, KeyError) as exc:
            return JobTiming(job, time.perf_counter() - started, error=repr(exc))
        return JobTiming(job, time.perf_counter() - started, record, payload)

    # -- resources ----------------------------------------------------------

    def peak_rss_mb(self) -> float:
        """The service process's ``VmHWM`` (peak resident set), in MB."""
        assert self.proc is not None
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServeError("no VmHWM in /proc status")

    def disk_mb(self) -> float:
        return _dir_bytes(self.root) / 1e6
