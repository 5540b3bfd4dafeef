"""Durable job records for the sweep service.

Every submission becomes one :class:`JobRecord`, persisted as a JSON file in
the service root's ``jobs/`` directory the moment it is accepted and
rewritten (atomically: temp file + ``os.replace``) on every status change.
Durability is therefore a property of the *files*, not of the process: a
service restarted over the same root reads the directory once, re-queues
anything that was mid-flight when the previous process died, and carries on
— clients keep polling the same job ids.  From then on the store answers
from an in-memory index of the records that it updates on every save, so a
status poll reads no file, at 10 jobs as at 10 000.  A finished record sits
in the index as its file's JSON text, deflated, so the index takes a small
part of the memory that the directory takes on disk.  The index is only
the truth while its store is the one writer of the directory, which the
service's root lock guarantees.

The record carries the full submission spec, so recovery needs nothing but
the job file; results are *not* stored here (they live as NPZ payloads next
door, see :mod:`repro.service.results`), keeping the job files small enough
to rewrite on every shard boundary for streaming progress.
"""

from __future__ import annotations

import copy
import json
import logging
import os
import re
import tempfile
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

from ..obs import REGISTRY
from .specs import SweepJobSpec, spec_digest

__all__ = ["JOB_STATUSES", "JobRecord", "JobStore"]

_LOG = logging.getLogger(__name__)

_CORRUPT_RECORDS = REGISTRY.counter(
    "repro_service_corrupt_records_total",
    "Unreadable job records renamed to *.corrupt and skipped",
)

#: Lifecycle of a job.  ``queued`` → ``running`` → ``done`` | ``failed``;
#: a restart moves interrupted ``running`` jobs back to ``queued``.
JOB_STATUSES: tuple[str, ...] = ("queued", "running", "done", "failed")

_JOB_ID_RE = re.compile(r"^job-(\d{6})-[0-9a-f]{8}$")

#: Statuses a job never leaves.  The store's index holds a record in one of
#: them as its file's JSON text, deflated, and decodes it when it is read.
_FINISHED = ("done", "failed")


@dataclass
class JobRecord:
    """One submission's durable state, mirrored to ``<jobs>/<job_id>.json``.

    The counters mirror :class:`~repro.engine.SweepOutcome` semantics:
    ``simulated`` / ``cache_hits`` count what actually happened *this run*,
    accumulated shard by shard, so a fully cache-served job finishes with
    ``simulated == 0`` and ``cache_hits == total_points``.  ``mode`` is the
    mode the submission resolved to; each result names the backend that
    produced it.  Keys :meth:`from_json` does not know are ignored, so job
    files carrying extra counters still load.
    """

    job_id: str
    spec: SweepJobSpec
    status: str = "queued"
    mode: str = ""
    total_points: int = 0
    points_completed: int = 0
    shards_total: int = 0
    shards_completed: int = 0
    simulated: int = 0
    cache_hits: int = 0
    vectorized_groups: int = 0
    eta_seconds: float | None = None
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    result_file: str | None = None
    note: str | None = None

    def to_json(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "spec": self.spec.to_json(),
            "status": self.status,
            "mode": self.mode,
            "total_points": self.total_points,
            "points_completed": self.points_completed,
            "shards_total": self.shards_total,
            "shards_completed": self.shards_completed,
            "simulated": self.simulated,
            "cache_hits": self.cache_hits,
            "vectorized_groups": self.vectorized_groups,
            "eta_seconds": self.eta_seconds,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "result_file": self.result_file,
            "note": self.note,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "JobRecord":
        status = str(payload.get("status", "queued"))
        if status not in JOB_STATUSES:
            raise ValueError(f"unknown job status {status!r}")
        return cls(
            job_id=str(payload["job_id"]),
            spec=SweepJobSpec.from_json(payload["spec"]),
            status=status,
            mode=str(payload.get("mode", "")),
            total_points=int(payload.get("total_points", 0)),
            points_completed=int(payload.get("points_completed", 0)),
            shards_total=int(payload.get("shards_total", 0)),
            shards_completed=int(payload.get("shards_completed", 0)),
            simulated=int(payload.get("simulated", 0)),
            cache_hits=int(payload.get("cache_hits", 0)),
            vectorized_groups=int(payload.get("vectorized_groups", 0)),
            eta_seconds=(
                None
                if payload.get("eta_seconds") is None
                else float(payload["eta_seconds"])
            ),
            submitted_at=float(payload.get("submitted_at", 0.0)),
            started_at=(
                None
                if payload.get("started_at") is None
                else float(payload["started_at"])
            ),
            finished_at=(
                None
                if payload.get("finished_at") is None
                else float(payload["finished_at"])
            ),
            error=(
                None if payload.get("error") is None else str(payload["error"])
            ),
            result_file=(
                None
                if payload.get("result_file") is None
                else str(payload["result_file"])
            ),
            note=(None if payload.get("note") is None else str(payload["note"])),
        )


class JobStore:
    """The ``jobs/`` directory: one JSON file per job, atomic rewrites.

    Job ids are ``job-<counter>-<digest8>``: the zero-padded submission
    counter keeps listings in submission order and guarantees uniqueness;
    the digest half is :func:`~repro.service.specs.spec_digest` of the
    submission, so identical work resubmitted is visibly identical in a
    listing.  The counter resumes from the files on disk, so a restarted
    service never reuses an id.

    The directory is read once, when the store opens.  A record that cannot
    be parsed is quarantined then (renamed to ``<name>.corrupt``, counted
    and logged), so one bad file cannot stop the service from starting; its
    id still counts towards the next one.  After that every read is served
    from memory.  The index holds its own copy of each record, taken when
    the record is saved, and hands out copies: a caller may change the
    record it holds without a poller seeing a half-made change.  A queued
    or running record is held decoded, as the worker and the queue scans
    need it; a done or failed one as the JSON text of its file, deflated,
    and decoded on each read.  A finished job so costs the index about
    30 bytes per raw point (its file: about 460) or 0.3 KB for a grid.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()  # guards the index and the counter
        # by id, in submission order: a record, or a finished one's text
        self._records: dict[str, JobRecord | bytes] = {}
        self._last_index = 0
        for path in sorted(self.root.glob("job-*.json*")):  # quarantined too
            match = _JOB_ID_RE.match(path.name.split(".")[0])
            if match:
                self._last_index = max(self._last_index, int(match.group(1)))
            if path.suffix == ".json":
                entry = self._read(path)
                if entry is not None:
                    self._records[path.stem] = entry

    def _path(self, job_id: str) -> Path:
        return self.root / f"{job_id}.json"

    def _read(self, path: Path) -> JobRecord | bytes | None:
        """A record file's index entry, or ``None`` once it is quarantined."""
        try:
            text = path.read_text(encoding="utf-8")
            record = JobRecord.from_json(json.loads(text))
        except (ValueError, KeyError, TypeError) as exc:
            path.replace(path.with_name(path.name + ".corrupt"))
            _CORRUPT_RECORDS.inc()
            _LOG.warning("quarantined unreadable job record %s: %s", path, exc)
            return None
        return _entry(record, text)

    def _unfinished(self, status: str) -> list[JobRecord]:
        """Copies of the unfinished records in ``status``, in id order."""
        with self._lock:
            records = [
                entry
                for entry in self._records.values()
                if isinstance(entry, JobRecord) and entry.status == status
            ]
        return [copy.copy(record) for record in records]

    def create(self, spec: SweepJobSpec, **fields: Any) -> JobRecord:
        """Mint and persist a fresh ``queued`` record for a submission.

        ``fields`` set other :class:`JobRecord` fields before the one write.
        """
        with self._lock:
            self._last_index += 1
            index = self._last_index
        record = JobRecord(
            job_id=f"job-{index:06d}-{spec_digest(spec)[:8]}",
            spec=spec,
            submitted_at=time.time(),
            **fields,
        )
        self.save(record)
        return record

    def save(self, record: JobRecord) -> None:
        """Atomically rewrite a record's file, then its index entry.

        A failed write raises before the index changes, so the file and the
        index both keep the old state.
        """
        path = self._path(record.job_id)
        blob = json.dumps(record.to_json(), sort_keys=True, indent=2)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(blob + "\n")
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        entry = _entry(record, blob)
        with self._lock:
            self._records[record.job_id] = entry

    def load(self, job_id: str) -> JobRecord | None:
        """A copy of one record, or ``None`` if the id is unknown."""
        with self._lock:
            entry = self._records.get(job_id)
        return None if entry is None else _decoded(entry)

    def __iter__(self) -> Iterator[JobRecord]:
        """Copies of all readable records, in submission (= id) order."""
        with self._lock:
            entries = list(self._records.values())
        return map(_decoded, entries)

    def __len__(self) -> int:
        return len(self._records)

    def pending(self) -> list[JobRecord]:
        """Queued records in submission order — the service's work list."""
        return self._unfinished("queued")

    def recover(self) -> list[JobRecord]:
        """Re-queue jobs a dead process left ``running``.

        Called once at service start.  The service reruns the whole job;
        shards finished before the crash were persisted to the shared
        result cache, so the rerun replays them as cache hits rather than
        resimulating.  The counters restart at zero because the rerun adds
        every shard's counts to them again.
        """
        recovered = []
        for record in self._unfinished("running"):
            record.status = "queued"
            record.points_completed = 0
            record.shards_completed = 0
            record.simulated = 0
            record.cache_hits = 0
            record.vectorized_groups = 0
            record.eta_seconds = None
            record.started_at = None
            record.note = "recovered after restart"
            self.save(record)
            recovered.append(record)
        return recovered


def _entry(record: JobRecord, text: str) -> JobRecord | bytes:
    """The index entry of a record whose file holds ``text``."""
    if record.status in _FINISHED:
        return zlib.compress(text.encode("utf-8"), 1)
    return copy.copy(record)


def _decoded(entry: JobRecord | bytes) -> JobRecord:
    """A fresh record from an index entry: a copy, or its text decoded."""
    if isinstance(entry, bytes):
        return JobRecord.from_json(json.loads(zlib.decompress(entry)))
    return copy.copy(entry)
