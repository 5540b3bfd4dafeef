"""The sweep service: durable queue + shard loop + shared warm cache.

:class:`SweepService` owns one root directory::

    <root>/service.lock  held (flock) by the one service on this root
    <root>/jobs/         durable JSON job records   (:mod:`repro.service.jobs`)
    <root>/cache/        the shared ResultCache     (:mod:`repro.engine.cache`)
    <root>/results/      per-job NPZ payloads       (:mod:`repro.service.results`)

One process serves a root at a time.  The service takes an exclusive,
non-blocking ``flock`` on ``service.lock`` before it reads anything, and a
second service on the same root fails with an ``OSError`` that names it.
The kernel drops the lock when the holder's descriptor closes: on
:meth:`SweepService.close`, once the worker's job has ended, or when the
process dies, SIGKILL included.  A
process forked from the service (a pool worker) closes its copy, so it
cannot keep the root after the service is gone.  Holding the root is what
lets the job store answer from memory and lets start-up delete every
``*.tmp`` file in ``jobs/`` and ``results/``: no live writer can own one.

Submissions are validated synchronously (the grid is resolved before a job
id is minted), persisted as ``queued`` records, and executed by a single
background worker thread that drains the queue in submission order, so no
two jobs race on the cache or the process pool.  Each job runs in
:data:`SHARD_SIZE`-point shards, one :meth:`SweepRunner.run` across the
runner's *process* pool per shard; the record is saved after every shard
but the last, whose counters the ``done`` (or ``failed``) save carries, so
progress streams to pollers and a crash loses at most one shard.

A job moves bytes, not arrays.  Its payload is opened when the job starts
(:func:`~repro.service.results.open_payload`) and each shard's cache
entries are appended to it as the shard ends, so a job holds at most one
shard of entries whatever its size, and no result is decoded in the
service: pool workers ship entries and cache hits stay checked bytes.  The
payload is renamed into ``results/`` only when the job succeeds.

Determinism contract: every point's seed lives in its config (derived from
grid coordinates at submission time), never in service state — so a job's
results are bitwise-identical to a library ``SweepRunner.run`` of the same
grid, regardless of shard size, worker count, restarts, or how warm the
shared cache is.  Resubmitting a grid therefore replays entirely from the
cache: zero simulated points, every point a hit.
"""

from __future__ import annotations

import fcntl
import math
import os
import threading
import time
import traceback
import weakref
from pathlib import Path
from typing import Any

from ..engine import ResultCache, SweepRunner
from ..obs import REGISTRY, trace_span
from .jobs import JobRecord, JobStore
from .results import open_payload
from .specs import SweepJobSpec

__all__ = ["SHARD_SIZE", "SweepService"]

#: Points per shard of a job: small enough that progress streams and a
#: crash costs little rework.
SHARD_SIZE = 16

_SHARD_SECONDS = REGISTRY.histogram(
    "repro_shard_seconds",
    "Wall-clock seconds per completed shard, by executor entry point",
    ("executor",),
)
_ETA_SECONDS = REGISTRY.gauge(
    "repro_job_eta_seconds",
    "Estimated seconds until the currently running job completes "
    "(mean completed-shard latency times shards remaining; 0 when idle)",
)
_JOBS_SUBMITTED = REGISTRY.counter(
    "repro_service_jobs_submitted_total", "Jobs accepted by this process"
)
_JOBS_FINISHED = REGISTRY.counter(
    "repro_service_jobs_finished_total",
    "Jobs this process ran to a terminal state, by outcome",
    ("status",),
)
_QUEUE_DEPTH = REGISTRY.gauge(
    "repro_service_queue_depth", "Queued jobs awaiting the worker"
)
_WORKER_BUSY = REGISTRY.counter(
    "repro_service_worker_busy_seconds_total",
    "Wall-clock seconds the worker spent executing jobs",
)
_JOB_SECONDS = REGISTRY.histogram(
    "repro_service_job_seconds", "Wall-clock seconds per executed job"
)


#: Descriptors that hold a root's lock in this process.  A flock belongs to
#: the open file, which a fork shares: a pool worker that outlived a killed
#: service would keep its root locked, so a forked child closes its copies.
_ROOT_LOCKS: set[int] = set()


def _close_inherited_root_locks() -> None:
    for fd in _ROOT_LOCKS:
        os.close(fd)
    _ROOT_LOCKS.clear()


os.register_at_fork(after_in_child=_close_inherited_root_locks)


def _lock_root(root: Path) -> int:
    """Take ``<root>/service.lock``; returns the descriptor that holds it.

    Raises ``OSError`` naming ``root`` if another service holds it.
    """
    fd = os.open(root / "service.lock", os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        os.close(fd)
        raise OSError(
            f"service root {root} is in use: another sweep service holds "
            f"{root / 'service.lock'}"
        ) from None
    except BaseException:
        os.close(fd)
        raise
    _ROOT_LOCKS.add(fd)
    return fd


def _unlock_root(fd: int) -> None:
    _ROOT_LOCKS.discard(fd)
    os.close(fd)


class SweepService:
    """Long-running sweep executor over one durable root directory.

    Parameters
    ----------
    root:
        Service state directory; created (with its ``jobs``/``cache``/
        ``results`` subdirectories) if missing.  Restarting over the same
        root resumes pending work.  One service holds a root at a time:
        construction raises ``OSError`` while another holds it, and
        :meth:`close` releases it.
    jobs:
        Worker processes per shard (the :class:`SweepRunner` pool size).
    """

    def __init__(self, root: str | Path, jobs: int | None = 1) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # closing the descriptor drops the lock: close(), or else collection
        # (a running worker holds the service); at exit the kernel drops it
        # once every thread is gone
        lock_fd = _lock_root(self.root)
        self._release_root = weakref.finalize(self, _unlock_root, lock_fd)
        self._release_root.atexit = False
        jobs_dir = self.root / "jobs"
        self.results_dir = self.root / "results"
        for directory in (jobs_dir, self.results_dir):
            directory.mkdir(exist_ok=True)
            # a writer killed mid-write left these; none is alive to finish
            for leftover in directory.glob("*.tmp"):
                leftover.unlink(missing_ok=True)
        self.store = JobStore(jobs_dir)
        self.cache = ResultCache(self.root / "cache")
        self.runner = SweepRunner(jobs=jobs, cache=self.cache)
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.recovered = self.store.recover()
        _QUEUE_DEPTH.set(len(self.store.pending()))

    # -- submission ---------------------------------------------------------

    def submit(self, spec: SweepJobSpec) -> JobRecord:
        """Accept a submission; returns its durable ``queued`` record.

        The spec is resolved eagerly — an unknown grid, a bad override, or
        an invalid config raises here (``KeyError``/``ValueError``), before
        any job id is minted, so clients never poll a job that was doomed
        at submission time.
        """
        configs, mode = spec.resolve()
        shards = math.ceil(len(configs) / SHARD_SIZE)
        with self._lock:
            record = self.store.create(
                spec, mode=mode, total_points=len(configs), shards_total=shards
            )
            # under the lock: the worker takes jobs under it too, so its own
            # count at a job's start always lands after this one
            _QUEUE_DEPTH.set(len(self.store.pending()))
        _JOBS_SUBMITTED.inc()
        self._wake.set()
        return record

    def submit_grid(
        self, grid: str, overrides: dict[str, Any] | None = None,
        executor: str = "sweep",
    ) -> JobRecord:
        """Convenience wrapper: submit a named grid."""
        return self.submit(SweepJobSpec.for_grid(grid, overrides, executor))

    # -- queries ------------------------------------------------------------

    def status(self, job_id: str) -> JobRecord | None:
        return self.store.load(job_id)

    def list_jobs(self) -> list[JobRecord]:
        return list(self.store)

    def result_path(self, job_id: str) -> Path | None:
        """Path of a finished job's NPZ payload, or ``None`` if not done."""
        record = self.store.load(job_id)
        if record is None or record.status != "done" or not record.result_file:
            return None
        path = self.results_dir / record.result_file
        return path if path.exists() else None

    # -- execution ----------------------------------------------------------

    def _execute(self, record: JobRecord) -> None:
        """Run one job shard by shard, adding each shard's counts to its record."""
        record.status = "running"
        record.started_at = time.time()
        self.store.save(record)
        _QUEUE_DEPTH.set(len(self.store.pending()))
        executor = record.spec.executor
        started = time.perf_counter()
        try:
            with trace_span(
                "job",
                cat="service",
                job_id=record.job_id,
                executor=executor,
                points=record.total_points,
            ):
                configs, mode = record.spec.resolve()
                starts = range(0, len(configs), SHARD_SIZE)
                shard_seconds = 0.0
                result_file = f"{record.job_id}.npz"
                with open_payload(self.results_dir / result_file) as payload:
                    for number, start in enumerate(starts, start=1):
                        shard = configs[start : start + SHARD_SIZE]
                        shard_started = time.perf_counter()
                        with trace_span(
                            "shard",
                            executor=executor,
                            shard=number,
                            shards_total=len(starts),
                            points=len(shard),
                        ):
                            outcome = self.runner.run(shard, mode)
                            points = zip(outcome.modes, outcome.entries, outcome.held)
                            for point in points:
                                payload.add(*point)
                        seconds = time.perf_counter() - shard_started
                        _SHARD_SECONDS.labels(executor=executor).observe(seconds)
                        shard_seconds += seconds
                        record.shards_completed += 1
                        record.points_completed += len(shard)
                        record.simulated += outcome.simulated
                        record.cache_hits += outcome.cache_hits
                        record.eta_seconds = (shard_seconds / number) * (
                            len(starts) - number
                        )
                        _ETA_SECONDS.set(record.eta_seconds)
                        # The done or failed save below carries the last
                        # shard's counters.
                        if number < len(starts):
                            self.store.save(record)
                    with trace_span("payload", cat="service", points=payload.points):
                        payload.close()
            record.result_file = result_file
            record.status = "done"
        except Exception:
            record.error = traceback.format_exc(limit=8)
            record.status = "failed"
        _ETA_SECONDS.set(0.0)
        busy = time.perf_counter() - started
        _WORKER_BUSY.inc(busy)
        _JOB_SECONDS.observe(busy)
        _JOBS_FINISHED.labels(status=record.status).inc()
        record.eta_seconds = None
        record.finished_at = time.time()
        self.store.save(record)

    def process_once(self) -> JobRecord | None:
        """Run the oldest queued job to completion; ``None`` if queue empty."""
        with self._lock:
            pending = self.store.pending()
            if not pending:
                return None
            record = pending[0]
        self._execute(record)
        return record

    def run_pending(self) -> int:
        """Drain the queue synchronously; returns how many jobs ran."""
        count = 0
        while self.process_once() is not None:
            count += 1
        return count

    # -- background worker ---------------------------------------------------

    def start(self) -> None:
        """Start the background worker thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._wake.set()  # drain anything already queued (or recovered)
        self._thread = threading.Thread(
            target=self._worker, name="sweep-service-worker", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float | None = 30.0) -> None:
        """Stop the worker after its current job (if any) finishes.

        Waits at most ``timeout`` seconds; a worker still in its job then
        stops when the job ends.
        """
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            if not self._thread.is_alive():
                self._thread = None

    def close(self) -> None:
        """Stop the worker and release the root for another service.

        Waits for the job in hand, however long it runs: a worker still
        saving records would be a second writer once another service took
        the root.
        """
        self.stop(timeout=None)
        self._release_root()

    def _worker(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(timeout=0.5)
            self._wake.clear()
            while not self._stop.is_set() and self.process_once() is not None:
                pass
