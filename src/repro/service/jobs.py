"""Durable job records for the sweep service.

Every submission becomes one :class:`JobRecord`, persisted as a JSON file in
the service root's ``jobs/`` directory the moment it is accepted and
rewritten (atomically: temp file + ``os.replace``) on every status change.
Durability is therefore a property of the *files*, not of the process: a
service restarted over the same root re-reads the directory, re-queues
anything that was mid-flight when the previous process died, and carries on
— clients keep polling the same job ids.

The record carries the full submission spec, so recovery needs nothing but
the job file; results are *not* stored here (they live as NPZ payloads next
door, see :mod:`repro.service.results`), keeping the job files small enough
to rewrite on every shard boundary for streaming progress.
"""

from __future__ import annotations

import json
import logging
import os
import re
import tempfile
import time
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

    A record that cannot be parsed is quarantined where it is read (renamed
    to ``<name>.corrupt``, counted and logged), so one bad file cannot stop
    the service from starting; its id still counts towards the next one.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, job_id: str) -> Path:
        return self.root / f"{job_id}.json"

    def _next_index(self) -> int:
        highest = 0
        for entry in self.root.glob("job-*.json*"):  # quarantined ids too
            match = _JOB_ID_RE.match(entry.name.split(".")[0])
            if match:
                highest = max(highest, int(match.group(1)))
        return highest + 1

    def _read(self, path: Path) -> JobRecord | None:
        """Parse one record file; quarantine it and return ``None`` if bad."""
        try:
            with path.open(encoding="utf-8") as handle:
                return JobRecord.from_json(json.load(handle))
        except (ValueError, KeyError, TypeError) as exc:
            try:
                path.replace(path.with_name(path.name + ".corrupt"))
            except FileNotFoundError:  # another reader quarantined it first
                return None
            _CORRUPT_RECORDS.inc()
            _LOG.warning("quarantined unreadable job record %s: %s", path, exc)
            return None

    def create(self, spec: SweepJobSpec) -> JobRecord:
        """Mint and persist a fresh ``queued`` record for a submission."""
        job_id = f"job-{self._next_index():06d}-{spec_digest(spec)[:8]}"
        record = JobRecord(job_id=job_id, spec=spec, submitted_at=time.time())
        self.save(record)
        return record

    def save(self, record: JobRecord) -> None:
        """Atomically rewrite a record's file (crash leaves the old state)."""
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

    def load(self, job_id: str) -> JobRecord | None:
        """Read one record, or ``None`` if the id is unknown."""
        path = self._path(job_id)
        if not path.exists():
            return None
        return self._read(path)

    def __iter__(self) -> Iterator[JobRecord]:
        """All readable records, in submission (= id) order."""
        for entry in sorted(self.root.glob("job-*.json")):
            record = self._read(entry)
            if record is not None:
                yield record

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("job-*.json"))

    def pending(self) -> list[JobRecord]:
        """Queued records in submission order — the service's work list."""
        return [record for record in self if record.status == "queued"]

    def recover(self) -> list[JobRecord]:
        """Re-queue jobs a dead process left ``running``.

        Called once at service start.  The service reruns the whole job;
        shards finished before the crash were persisted to the shared
        result cache, so the rerun replays them as cache hits rather than
        resimulating.  The counters restart at zero because the rerun adds
        every shard's counts to them again.
        """
        recovered = []
        for record in self:
            if record.status == "running":
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
