"""Stdlib client for the sweep service's HTTP/JSON API.

Wraps :mod:`urllib.request` so the CLI subcommands (and tests) talk to a
running service without any third-party HTTP dependency.  Error responses
surface as :class:`ServiceError` carrying the HTTP status and the service's
JSON error text, so callers can distinguish "unknown job" (404) from "not
done yet" (409) without parsing exception strings.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
import urllib.error
import urllib.request
from http.client import HTTPResponse
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from ..backends import SimulationConfig
from ..engine.cache import atomic_file
from .jobs import JobRecord
from .results import load_result_arrays
from .specs import SweepJobSpec

__all__ = ["OutputError", "ServiceError", "ServiceClient"]


class ServiceError(RuntimeError):
    """An HTTP error answer from the service (status + decoded message)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"service answered {status}: {message}")
        self.status = status
        self.message = message


class OutputError(OSError):
    """A download's local file could not be written; ``filename`` names it."""


class _Output:
    """The local side of a download, written through
    :func:`~repro.engine.cache.atomic_file`: a failure to create, write or
    rename the file raises :class:`OutputError`, so it is never taken for a
    failure to reach the service."""

    def __init__(self, path: str | Path) -> None:
        self.path = str(path)
        self._file = atomic_file(path)

    @contextlib.contextmanager
    def _own_failures(self) -> Iterator[None]:
        try:
            yield
        except OSError as exc:
            raise OutputError(exc.errno, exc.strerror or str(exc), self.path) from exc

    def __enter__(self) -> "_Output":
        with self._own_failures():
            self._handle = self._file.__enter__()
        return self

    def write(self, data: bytes) -> int:
        with self._own_failures():
            return self._handle.write(data)

    def tell(self) -> int:
        return self._handle.tell()

    def __exit__(self, *exc_info: Any) -> bool | None:
        with self._own_failures():  # the rename; a body's error passes through
            return self._file.__exit__(*exc_info)


class ServiceClient:
    """Talk to one sweep service instance at ``base_url``."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    @contextlib.contextmanager
    def _response(
        self, path: str, body: Mapping[str, Any] | None = None
    ) -> Iterator[HTTPResponse]:
        url = f"{self.base_url}{path}"
        data = None
        headers = {}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as answer:
                yield answer
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode("utf-8", errors="replace")
            try:
                detail = json.loads(detail).get("error", detail)
            except (json.JSONDecodeError, AttributeError):
                pass
            raise ServiceError(exc.code, detail) from None

    def _request(
        self, path: str, body: Mapping[str, Any] | None = None
    ) -> bytes:
        with self._response(path, body) as answer:
            return answer.read()

    def _request_json(
        self, path: str, body: Mapping[str, Any] | None = None
    ) -> Any:
        return json.loads(self._request(path, body))

    # -- API ----------------------------------------------------------------

    def health(self) -> dict[str, Any]:
        payload = self._request_json("/health")
        assert isinstance(payload, dict)
        return payload

    def submit(self, spec: SweepJobSpec) -> JobRecord:
        return JobRecord.from_json(self._request_json("/jobs", spec.to_json()))

    def submit_grid(
        self,
        grid: str,
        overrides: Mapping[str, Any] | None = None,
        executor: str = "sweep",
    ) -> JobRecord:
        return self.submit(SweepJobSpec.for_grid(grid, overrides, executor))

    def submit_points(
        self,
        points: Sequence[SimulationConfig],
        mode: str,
        executor: str = "sweep",
    ) -> JobRecord:
        return self.submit(SweepJobSpec.for_points(points, mode, executor))

    def jobs(self) -> list[SimpleNamespace]:
        """Every job's summary (``GET /jobs``), in submission order.

        A summary's attributes are its record's fields, but ``spec`` is the
        spec's JSON, in which a points submission's ``points`` is their
        count; :meth:`status` answers a job's full record.
        """
        payload = self._request_json("/jobs")
        return [SimpleNamespace(**entry) for entry in payload["jobs"]]

    def status(self, job_id: str) -> JobRecord:
        return JobRecord.from_json(self._request_json(f"/jobs/{job_id}"))

    def metrics_text(self) -> str:
        """The service's ``GET /metrics`` Prometheus exposition text."""
        return self._request("/metrics").decode("utf-8")

    def wait(
        self,
        job_id: str,
        timeout: float = 300.0,
        poll_seconds: float = 0.2,
        max_poll_seconds: float = 5.0,
        on_progress: Callable[[JobRecord], None] | None = None,
    ) -> JobRecord:
        """Poll until the job leaves the queue (``done`` or ``failed``).

        Polls with capped exponential backoff: the interval starts at
        ``poll_seconds`` and grows 1.5x per poll up to ``max_poll_seconds``,
        so waiting on a long job does not hammer the service at the initial
        rate for its whole runtime (the old fixed-interval loop fired five
        requests a second for however many minutes a job took).  A sleep
        never overshoots the deadline.

        ``on_progress`` fires with each polled record whose
        ``points_completed`` advanced (and for the first poll), so callers
        can stream ``completed/total`` and the service's ETA estimate
        without re-polling themselves.

        Raises ``TimeoutError`` (with the last observed status) if the job
        is still queued/running after ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        interval = max(0.01, poll_seconds)
        last_reported: int | None = None
        while True:
            record = self.status(job_id)
            if on_progress is not None and (
                last_reported is None
                or record.points_completed > last_reported
            ):
                last_reported = record.points_completed
                on_progress(record)
            if record.status in ("done", "failed"):
                return record
            now = time.monotonic()
            if now >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {record.status} "
                    f"({record.points_completed}/{record.total_points} points) "
                    f"after {timeout:.0f}s"
                )
            time.sleep(min(interval, deadline - now))
            interval = min(interval * 1.5, max_poll_seconds)

    def result_bytes(self, job_id: str) -> bytes:
        """The finished job's raw NPZ payload."""
        return self._request(f"/jobs/{job_id}/result")

    def save_result(self, job_id: str, path: str | Path) -> int:
        """Stream the finished job's NPZ payload into ``path``; returns its size.

        The body is copied chunk by chunk through
        :func:`~repro.engine.cache.atomic_file`, so a payload of any size
        holds one chunk in memory, and a download that fails leaves no file.
        A body shorter than its ``Content-Length`` (a chunked read ends
        quietly when the connection closes early) raises ``ConnectionError``;
        a failure of ``path`` itself raises :class:`OutputError`.
        """
        with (
            self._response(f"/jobs/{job_id}/result") as answer,
            _Output(path) as output,
        ):
            shutil.copyfileobj(answer, output)
            size, length = output.tell(), answer.headers.get("Content-Length")
            if length is not None and size != int(length):
                raise ConnectionError(
                    f"the service sent {size} of the payload's {length} bytes"
                )
            return size

    def result_arrays(self, job_id: str) -> dict[str, np.ndarray]:
        """The finished job's payload, decoded to its flat array mapping."""
        return load_result_arrays(io.BytesIO(self.result_bytes(job_id)))
