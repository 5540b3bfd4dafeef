"""Sweep service: durable job queue, run shard by shard, shared warm cache.

The long-running counterpart to :class:`repro.engine.SweepRunner`: accept
grid submissions over JSON, persist them as durable job records, execute
them shard by shard across the runner's process pool through one shared
result cache, and stream per-job progress over a stdlib HTTP API.  Results
are bitwise-identical to a library ``SweepRunner.run`` of the same grid —
seeds derive from grid coordinates, never from service state.

Layering: ``specs`` (JSON codec) → ``jobs`` (durable records) /
``results`` (NPZ payloads) → ``service`` (the queue worker, which runs each
job's shards through the runner) → ``http`` / ``client`` (the wire).
"""

from .client import ServiceClient, ServiceError
from .http import make_server, serve_forever
from .jobs import JOB_STATUSES, JobRecord, JobStore
from .results import (
    load_result_arrays,
    outcome_arrays,
    save_result_npz,
    split_point_arrays,
)
from .service import SweepService
from ..engine.codec import config_from_json, config_to_json
from .specs import EXECUTORS, SweepJobSpec, spec_digest

__all__ = [
    "EXECUTORS",
    "JOB_STATUSES",
    "JobRecord",
    "JobStore",
    "ServiceClient",
    "ServiceError",
    "SweepJobSpec",
    "SweepService",
    "config_from_json",
    "config_to_json",
    "load_result_arrays",
    "make_server",
    "outcome_arrays",
    "save_result_npz",
    "serve_forever",
    "spec_digest",
    "split_point_arrays",
]
