"""Durable job records for the sweep service.

Every submission becomes one :class:`JobRecord`, persisted as a JSON file in
the service root's ``jobs/`` directory the moment it is accepted and
rewritten (atomically, through :func:`~repro.engine.cache.atomic_file`) on
every status change.  A record's JSON is its dataclass, walked by
:mod:`repro.engine.codec`.
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

The index also holds each record's summary, what ``GET /jobs`` lists: the
record without its raw points, so a listing decodes no record and does not
grow with the points the jobs hold.

The record carries the full submission spec, so recovery needs nothing but
the job file; results are *not* stored here (they live as NPZ payloads next
door, see :mod:`repro.service.results`), keeping the job files small enough
to rewrite on every shard boundary for streaming progress.
"""

from __future__ import annotations

import copy
import json
import logging
import re
import threading
import time
import zlib
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Iterator, Mapping

from ..engine.cache import atomic_file
from ..engine.codec import _object, from_json, to_json
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
    produced it.

    :meth:`to_json` and :meth:`from_json` are the config walker's
    (:mod:`repro.engine.codec`): a value of the wrong JSON type, or a
    status outside :data:`JOB_STATUSES`, raises ``ValueError``.  Keys
    :meth:`from_json` does not know are ignored, so job files carrying
    extra counters still load.
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
    eta_seconds: float | None = None
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    result_file: str | None = None
    note: str | None = None

    def __post_init__(self) -> None:
        if self.status not in JOB_STATUSES:
            raise ValueError(f"unknown job status {self.status!r}")

    def to_json(self) -> dict[str, Any]:
        return to_json(self)

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "JobRecord":
        items = _object(payload, cls.__name__).items()
        return from_json(cls, {k: v for k, v in items if k in _FIELDS})


_FIELDS = frozenset(field.name for field in fields(JobRecord))


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
    Beside each record the index keeps its summary's JSON text
    (:meth:`summaries`), built from the record's JSON when it is read or
    saved.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()  # guards the index and the counter
        # by id, in submission order: a record, or a finished one's text
        self._records: dict[str, JobRecord | bytes] = {}
        # by id, in the same order: the JSON text of each record's summary
        self._summaries: dict[str, str] = {}
        self._last_index = 0
        for path in sorted(self.root.glob("job-*.json*")):  # quarantined too
            match = _JOB_ID_RE.match(path.name.split(".")[0])
            if match:
                self._last_index = max(self._last_index, int(match.group(1)))
            if path.suffix == ".json":
                read = self._read(path)
                if read is not None:
                    self._records[path.stem], self._summaries[path.stem] = read

    def _path(self, job_id: str) -> Path:
        return self.root / f"{job_id}.json"

    def _read(self, path: Path) -> tuple[JobRecord | bytes, str] | None:
        """A record file's index entry and summary, or ``None`` once it is
        quarantined."""
        try:
            text = path.read_text(encoding="utf-8")
            payload = json.loads(text)
            record = JobRecord.from_json(payload)
        except (ValueError, KeyError, TypeError) as exc:
            path.replace(path.with_name(path.name + ".corrupt"))
            _CORRUPT_RECORDS.inc()
            _LOG.warning("quarantined unreadable job record %s: %s", path, exc)
            return None
        known = {key: value for key, value in payload.items() if key in _FIELDS}
        return _entry(record, text), _summary(known)

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
        payload = record.to_json()
        blob = json.dumps(payload, sort_keys=True, indent=2)
        with atomic_file(self._path(record.job_id)) as handle:
            handle.write(blob.encode("utf-8") + b"\n")
        entry, summary = _entry(record, blob), _summary(payload)
        with self._lock:
            self._records[record.job_id] = entry
            self._summaries[record.job_id] = summary

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

    def summaries(self) -> list[dict[str, Any]]:
        """Every record's summary, in submission order; decodes no record.

        A summary is the record's JSON with a points submission's raw
        ``points`` replaced by their count, so it does not grow with them.
        """
        with self._lock:
            texts = list(self._summaries.values())
        return [json.loads(text) for text in texts]

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
            record.eta_seconds = None
            record.started_at = None
            record.note = "recovered after restart"
            self.save(record)
            recovered.append(record)
        return recovered


def _summary(payload: Mapping[str, Any]) -> str:
    """The JSON text of the summary of a record whose JSON is ``payload``."""
    spec = dict(payload["spec"])
    if "points" in spec:
        spec["points"] = len(spec["points"])
    return json.dumps({**payload, "spec": spec}, sort_keys=True)


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
