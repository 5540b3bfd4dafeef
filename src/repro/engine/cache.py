"""On-disk result cache for sweep executions.

Reproducing a figure means evaluating a grid of independent simulation points;
most of the cost of iterating on a figure is re-simulating points that have
not changed.  :class:`ResultCache` stores each completed simulation result as
one compressed NPZ file (raw sample arrays plus a float metadata record)
keyed by a stable fingerprint of the ``(SimulationConfig, mode)`` pair, so
replaying a sweep loads the raw samples instead of resimulating — the
raw→cache→report pipeline used by the figure-reproduction repos this engine
is modelled on.

The cache itself is backend-agnostic: an entry's layout is its result
dataclass.  :func:`result_arrays` stores every sample field of a
:class:`~repro.backends.SimulationResult` or
:class:`~repro.backends.OpenSystemResult` under its field name, and
:func:`decode_entry` rebuilds the result from the same names, so no backend
writes serialization code.  The fingerprint covers every field that
influences the simulation output (including the seed and the backend mode),
so two configs collide only when they would produce bitwise-identical
results.  Confidence intervals are *not* stored; the result classes derive
them from the samples on first access, which is deterministic and keeps the
cache format independent of the stats layer.

An entry travels as bytes.  :func:`encode_entry` is the only place a point
is deflated; a sweep's pool worker runs it and ships the bytes, not the
arrays.  A hit is the file's bytes, checked but not decoded
(:meth:`ResultCache.read_entry`): every member is inflated in chunks to
check its CRC-32 and size, and no array is built.  A job payload copies the
deflated members out of those bytes (:mod:`repro.service.results`), and
only a caller that asks for the result (:meth:`ResultCache.load`,
:attr:`repro.engine.SweepOutcome.results`) decodes it, to float64 arrays.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import tempfile
import zipfile
import zlib
from dataclasses import fields, replace
from pathlib import Path
from typing import Any, BinaryIO, Iterator, Mapping

import numpy as np

from ..backends import (
    OpenSystemResult,
    SimulationConfig,
    SimulationResult,
    get_backend,
)
from ..obs import REGISTRY
from .codec import to_json

__all__ = [
    "CACHE_VERSION", "SCHEMA_HISTORY", "atomic_file", "config_fingerprint",
    "decode_entry", "encode_entry", "result_arrays", "ResultCache",
]

# Cache observability: counted in whichever process performs the cache I/O —
# the sweep parent (and therefore the service process), since SweepRunner
# checks the cache before fanning work out to its pool.
_CACHE_HITS = REGISTRY.counter(
    "repro_cache_hits_total", "Result-cache lookups served from disk"
)
_CACHE_MISSES = REGISTRY.counter(
    "repro_cache_misses_total",
    "Result-cache lookups that found no (usable) entry",
)
_CACHE_CORRUPT = REGISTRY.counter(
    "repro_cache_corrupt_evictions_total",
    "Cache entries deleted because they were corrupt or unreadable",
)
_CACHE_STORES = REGISTRY.counter(
    "repro_cache_stores_total", "Completed points persisted to the cache"
)
_CACHE_STORE_BYTES = REGISTRY.counter(
    "repro_cache_store_bytes_total", "Compressed NPZ bytes written to the cache"
)
_CACHE_STORE_FAILURES = REGISTRY.counter(
    "repro_cache_store_failures_total",
    "Stores skipped because writing or renaming the temp file failed",
)

#: The fingerprint schema changelog, one ``(version, what changed and why)``
#: entry per schema, oldest first.  Append an entry whenever the on-disk
#: layout or the fingerprint payload changes — a bump changes every digest,
#: so entries written under an older schema can never silently replay.  This
#: tuple is the single source of truth: :data:`CACHE_VERSION` is derived from
#: its last entry, a runtime test checks it stays contiguous, and the docs
#: render it verbatim.
SCHEMA_HISTORY: tuple[tuple[int, str], ...] = (
    (
        1,
        "initial payload: workstations, task demand, the representative "
        "owner, sampling parameters and the seed",
    ),
    (
        2,
        "added the scenario fields (per-station owners, scheduling policy), "
        "without which a schema-1 entry keyed only on the representative "
        "owner could replay for a heterogeneous or non-static point it "
        "never simulated",
    ),
    (
        3,
        "added the job-arrival process (open-system mode) and the "
        "open-result NPZ layout: without the arrival fields, a closed point "
        "and an open point sharing a scenario would collide on one digest",
    ),
    (
        4,
        "added the admission subsystem (job classes with widths/priorities/"
        "think-time sources, the admission policy and its kwargs) and the "
        "per-job width/class/restart arrays in the open NPZ layout",
    ),
    (
        5,
        "added trace-driven owners (the per-station replayed activity trace "
        "enters the payload — a schema-4 entry knows only the trace's fitted "
        "summary statistics, so two different traces with equal means would "
        "collide) and moved the NPZ layouts behind the per-backend "
        "serialize/deserialize hooks",
    ),
    (
        6,
        "canonicalized the executor-equivalent modes: 'event-kernel' "
        "fingerprints as the oracle mode it replaces ('event-driven' for "
        "closed scenarios, 'open-system' for open ones), because the kernel "
        "is pinned bitwise to those back-ends and shares their NPZ layouts — "
        "a sweep cached under either executor replays on the other instead "
        "of resimulating",
    ),
    (
        7,
        "replaced the hand-written payload by the config's one JSON "
        "encoding, walked off the spec dataclasses (the service wire codec) "
        "after folding the legacy owner fields into the effective scenario: "
        "a new config field now enters the key without anyone editing the "
        "fingerprint, where a forgotten field in the hand-written payload "
        "would have replayed stale entries",
    ),
)

#: Current fingerprint schema version — always the last history entry.
CACHE_VERSION = SCHEMA_HISTORY[-1][0]


def _canonical_mode(config: SimulationConfig, mode: str) -> str:
    """Collapse executor-equivalent modes to one fingerprint identity.

    The ``event-kernel`` backend is pinned bitwise to the generator-based
    oracles and stores their exact NPZ layouts, so its points share digests
    with the oracle mode they replace; every other mode is its own identity.
    """
    if str(mode) == "event-kernel":
        return (
            "open-system" if config.effective_scenario.is_open else "event-driven"
        )
    return str(mode)


def _canonical_config(config: SimulationConfig) -> SimulationConfig:
    """The config with its representative owner fields folded into its scenario.

    Sets the explicit scenario to the effective one and the legacy owner
    fields to its first station's, so a homogeneous legacy config and the
    equivalent explicit ``ScenarioSpec`` canonicalise to one config, and the
    representative owner of a scenario config — which no back-end reads —
    stays out of the key.  Every other field passes through ``replace``
    untouched, so a new ``SimulationConfig`` field enters the key by itself.
    """
    scenario = config.effective_scenario
    first = scenario.stations[0]
    return replace(
        config,
        scenario=scenario,
        owner=first.owner,
        owner_demand_kind=first.demand_kind,
        owner_demand_kwargs=dict(first.demand_kwargs),
    )


def config_fingerprint(config: SimulationConfig, mode: str) -> str:
    """Stable hex digest identifying one ``(config, mode)`` simulation point.

    The payload is the config's one JSON encoding
    (:func:`repro.engine.codec.to_json`), so every field that affects the
    sampled output enters it and floats keep their exact ``repr``.  The
    config enters through :func:`_canonical_config`, so equivalent legacy and
    scenario configs share one cache entry; the mode enters through
    :func:`_canonical_mode`, so bitwise-equivalent executors share one too.
    """
    canonical = _canonical_config(config)
    payload = {
        "schema": CACHE_VERSION,
        "mode": _canonical_mode(canonical, mode),
        "config": to_json(canonical),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: Result fields that name the point rather than hold its samples.
_POINT_FIELDS = ("config", "mode")


def result_arrays(result: SimulationResult | OpenSystemResult) -> dict[str, np.ndarray]:
    """The arrays of one result's cache entry, keyed by field name.

    Every field except ``config`` and ``mode``, in declaration order, as
    float64; a ``None`` scalar is stored as NaN.
    """
    arrays: dict[str, np.ndarray] = {}
    for f in fields(result):
        if f.name not in _POINT_FIELDS:
            value = getattr(result, f.name)
            arrays[f.name] = np.asarray(
                np.nan if value is None else value, dtype=np.float64
            )
    return arrays


def _result_class(
    config: SimulationConfig,
) -> type[SimulationResult] | type[OpenSystemResult]:
    return OpenSystemResult if config.effective_scenario.is_open else SimulationResult


def _sample_fields(config: SimulationConfig) -> list[str]:
    """The fields a result of ``config`` keeps in its entry, in order."""
    cls = _result_class(config)
    return [f.name for f in fields(cls) if f.name not in _POINT_FIELDS]


def _result_from_arrays(
    config: SimulationConfig, mode: str, arrays: Mapping[str, np.ndarray]
) -> SimulationResult | OpenSystemResult:
    """Rebuild a result from its :func:`result_arrays`.

    A missing array raises ``KeyError``, and a first array that does not
    hold ``config.num_jobs`` samples raises ``ValueError``.
    """
    samples: dict[str, Any] = {}
    for name in _sample_fields(config):
        value = np.asarray(arrays[name], dtype=np.float64)
        if not samples and value.shape != (config.num_jobs,):
            raise ValueError(
                f"cached entry holds {value.size} jobs but the config expects "
                f"{config.num_jobs}"
            )
        if value.ndim == 0:  # a scalar field, NaN standing for None
            samples[name] = None if np.isnan(value) else float(value)
        else:
            samples[name] = value
    return _result_class(config)(config=config, mode=mode, **samples)


def encode_entry(result: SimulationResult | OpenSystemResult) -> bytes:
    """The compressed NPZ cache entry of one result, as bytes.

    Holds the result's :func:`result_arrays`, deflated by
    ``np.savez_compressed`` — the only place a point is deflated.
    """
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **result_arrays(result))
    return buffer.getvalue()


def decode_entry(
    config: SimulationConfig, mode: str, entry: bytes
) -> SimulationResult | OpenSystemResult:
    """The result an entry holds, labelled ``mode``, its arrays as float64."""
    with np.load(io.BytesIO(entry), allow_pickle=False) as data:
        return _result_from_arrays(config, mode, data)


#: Inflated bytes held at a time while an entry is checked.
_CHECK_CHUNK = 1 << 20

#: The ``.npy`` header reader of each format version numpy writes.
_NPY_HEADERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}

#: What a torn, garbled or foreign entry raises while it is checked
#: (``zipfile`` raises ``RuntimeError`` for a member flagged encrypted, and
#: ``NotImplementedError`` for an unknown compression method).
_ENTRY_ERRORS = (
    OSError, KeyError, ValueError, EOFError, RuntimeError, zipfile.BadZipFile,
    zlib.error,
)


def _check_entry(config: SimulationConfig, entry: bytes) -> None:
    """Raise one of :data:`_ENTRY_ERRORS` unless ``entry`` is whole.

    Whole means what :func:`decode_entry` would accept, proved without
    building an array: one ``.npy`` member per sample field of the
    config's result class, in :func:`result_arrays` order; each member
    inflated in :data:`_CHECK_CHUNK` pieces up to its directory size, where
    ``zipfile`` compares the CRC-32 with the directory's; a header that
    names no object dtype and whose shape accounts for every inflated data
    byte; and ``config.num_jobs`` samples in the first member.  The
    directory alone would pass a flipped bit: only the inflate finds it.
    """
    with zipfile.ZipFile(io.BytesIO(entry)) as archive:
        members = archive.infolist()
        names = [member.filename for member in members]
        if names != [f"{name}.npy" for name in _sample_fields(config)]:
            raise KeyError(f"cached entry holds members {names}")
        for index, member in enumerate(members):
            with archive.open(member) as stream:
                read_header = _NPY_HEADERS.get(np.lib.format.read_magic(stream))
                if read_header is None:
                    raise ValueError(f"unsupported .npy version in {member.filename}")
                shape, _, dtype = read_header(stream)
                data = 0
                while chunk := stream.read(_CHECK_CHUNK):
                    data += len(chunk)
            if dtype.hasobject or data != math.prod(shape) * dtype.itemsize:
                raise ValueError(f"{member.filename} does not hold its shape {shape}")
            if index == 0 and shape != (config.num_jobs,):
                raise ValueError(
                    f"cached entry holds {math.prod(shape)} jobs but the config "
                    f"expects {config.num_jobs}"
                )


#: An :func:`atomic_file` temp-file name, ``<stem>.<writer pid>.<random>.tmp``.
_TMP_NAME = re.compile(r"\.([1-9][0-9]{0,8})\.[^.]+\.tmp$")


@contextlib.contextmanager
def atomic_file(path: str | Path) -> Iterator[BinaryIO]:
    """Write ``path`` whole or not at all.

    Yields a binary handle on a temp file beside ``path``, named
    ``<stem>.<pid>.<random>.tmp`` (:data:`_TMP_NAME`), and renames it over
    ``path`` with ``os.replace`` when the block ends.  If the block or the
    rename raises, the temp file is removed and the exception propagates,
    so ``path`` keeps its old bytes.  A writer killed mid-write leaves its
    temp file behind for the directory's owner to sweep.  Cache entries,
    job records, result payloads and downloads are all written through it.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f"{path.stem}.{os.getpid()}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


def _writer_is_live(tmp_name: str) -> bool:
    """Whether a temp file's name holds the pid of a running process."""
    match = _TMP_NAME.search(tmp_name)
    if match is None:
        return False
    try:
        os.kill(int(match.group(1)), 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, but another user's process
        pass
    return True


class ResultCache:
    """Directory-backed store of completed simulation points.

    One NPZ file per point, named after its fingerprint, holding the
    point's :func:`result_arrays`.  Writes go through :func:`atomic_file`,
    so concurrent sweep workers sharing a cache directory never observe
    torn files.  :meth:`read_entry` and :meth:`write_entry` move an entry's
    bytes; :meth:`load` and :meth:`store` decode and encode a result around
    them.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._sweep_stale_tmp_files()

    def _sweep_stale_tmp_files(self) -> int:
        """Remove ``*.tmp`` leftovers of writers that crashed mid-store.

        :meth:`write_entry` writes through :func:`atomic_file`; a writer killed
        between its write and its rename leaks the temp file,
        which ``glob("*.npz")`` never sees — so without this sweep a shared
        cache directory accumulates invisible garbage across service
        restarts.  A temp file whose name holds the pid of a running
        process belongs to a live writer and is left alone, so opening a
        second cache on a shared directory never fails a store in flight.
        """
        removed = 0
        for leftover in self.root.glob("*.tmp"):
            if _writer_is_live(leftover.name):
                continue
            try:
                leftover.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def path_for(self, config: SimulationConfig, mode: str) -> Path:
        """Cache file path of one simulation point."""
        return self.root / f"{config_fingerprint(config, mode)}.npz"

    def contains(self, config: SimulationConfig, mode: str) -> bool:
        return self.path_for(config, mode).exists()

    def read_entry(self, config: SimulationConfig, mode: str) -> bytes | None:
        """Return a cached point's entry bytes, or ``None`` on a miss.

        The file is read once and checked, not decoded (:func:`_check_entry`).
        An entry that fails the check — truncated, missing a member, a
        flipped bit, a sample count that contradicts the config — is a
        miss: the point is simply resimulated and rewritten, and the corrupt
        file is deleted so it cannot shadow the rewrite.  An unregistered
        ``mode`` raises ``ValueError``.
        """
        get_backend(mode)  # fail fast on an unregistered mode
        path = self.path_for(config, mode)
        try:
            entry = path.read_bytes()
            _check_entry(config, entry)
        except FileNotFoundError:
            _CACHE_MISSES.inc()
            return None
        except _ENTRY_ERRORS:
            try:
                path.unlink()
            except OSError:
                pass
            _CACHE_CORRUPT.inc()
            _CACHE_MISSES.inc()
            return None
        _CACHE_HITS.inc()
        return entry

    def load_entry(
        self, config: SimulationConfig, mode: str
    ) -> tuple[SimulationResult | OpenSystemResult, bytes] | None:
        """Return a cached point's result and entry bytes, or ``None`` on a miss.

        The entry is :meth:`read_entry`'s, and the result is decoded from it
        (:func:`decode_entry`) with the fields of its class
        (:class:`OpenSystemResult` for an open scenario), labelled with the
        requested ``mode``.
        """
        entry = self.read_entry(config, mode)
        return None if entry is None else (decode_entry(config, mode, entry), entry)

    def load(
        self, config: SimulationConfig, mode: str
    ) -> SimulationResult | OpenSystemResult | None:
        """Return the cached result for a point, or ``None`` on a miss."""
        hit = self.load_entry(config, mode)
        return None if hit is None else hit[0]

    def store(
        self,
        config: SimulationConfig,
        mode: str,
        result: SimulationResult | OpenSystemResult,
    ) -> Path | None:
        """Persist one completed point: :meth:`write_entry` of its
        :func:`encode_entry` bytes."""
        return self.write_entry(config, mode, encode_entry(result))

    def write_entry(
        self, config: SimulationConfig, mode: str, entry: bytes
    ) -> Path | None:
        """Write one point's entry bytes unchanged; returns its cache file path.

        A store is an optimisation, never a condition of the sweep: an
        ``OSError`` while writing or renaming the temp file (a full disk,
        say) skips it — the temp file is removed, the skip is counted in
        ``repro_cache_store_failures_total`` and ``None`` is returned
        instead of a path.
        """
        path = self.path_for(config, mode)
        try:
            with atomic_file(path) as handle:
                handle.write(entry)
        except OSError:
            _CACHE_STORE_FAILURES.inc()
            return None
        _CACHE_STORES.inc()
        _CACHE_STORE_BYTES.inc(len(entry))
        return path

    def clear(self) -> int:
        """Delete every cached point; returns how many entries were removed.

        Stale ``*.tmp`` leftovers are swept as well (not counted — they were
        never entries); a live writer's temp file is left to its rename.
        """
        removed = 0
        for entry in self.root.glob("*.npz"):
            entry.unlink()
            removed += 1
        self._sweep_stale_tmp_files()
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.npz"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache(root={str(self.root)!r}, entries={len(self)})"
