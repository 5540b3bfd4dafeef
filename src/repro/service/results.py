"""NPZ result payloads for completed sweep jobs.

A finished job's deliverable is one compressed NPZ file holding every
point's arrays, namespaced as ``point00000/<key>`` in grid order, plus a
per-point backend-mode marker so the file is self-describing.  The arrays
are each point's :func:`~repro.engine.cache.result_arrays` — the same
layout the result cache stores, one array per result field — so a payload
built from a service run and one built from a library
:meth:`SweepRunner.run` of the same grid are comparable array by array.

They are in fact comparable *byte for byte*: ``np.savez_compressed`` writes
its zip members with a fixed 1980 timestamp and the arrays themselves are
deterministic under the bitwise contract, so the end-to-end pin in the test
suite asserts equality of the serialized files, not merely of their
contents.

A payload deflates nothing again, and is written as it goes: a
:class:`PayloadWriter` (:func:`open_payload`) appends each point as its
``__mode__`` member followed by the deflated members copied out of its
cache entry (:func:`~repro.engine.cache.encode_entry` bytes), so a job
appends each shard's entries as the shard ends and holds no more than one
shard of them.  Both files deflate the same ``.npy`` bytes the same way,
and the entry's stamp (its archive comment) is not copied, so the bytes
equal those of ``np.savez_compressed(**outcome_arrays(results))``.
:func:`save_result_npz` is the same writer run over a list of results.
"""

from __future__ import annotations

import contextlib
import io
import struct
import zipfile
from pathlib import Path
from typing import IO, Iterator, Mapping, Sequence

import numpy as np

from ..backends import OpenSystemResult, SimulationResult
from ..engine.cache import atomic_file, encode_entry, result_arrays
from ..obs import REGISTRY

__all__ = [
    "PayloadWriter",
    "open_payload",
    "outcome_arrays",
    "save_result_npz",
    "load_result_arrays",
    "split_point_arrays",
]

_PAYLOAD_POINTS = REGISTRY.counter(
    "repro_payload_points_total",
    "Points written into job payloads, by where their deflated arrays came "
    "from (a cache entry, or encoded for the payload)",
    ("source",),
)

#: Zero-padded namespace prefix: supports grids up to 100k points while
#: keeping lexicographic order equal to grid order.
_POINT_KEY = "point{index:05d}/{key}"


def outcome_arrays(
    results: Sequence[SimulationResult | OpenSystemResult],
) -> dict[str, np.ndarray]:
    """Flatten a sweep's results into one namespaced array mapping."""
    arrays: dict[str, np.ndarray] = {}
    for index, result in enumerate(results):
        arrays[_POINT_KEY.format(index=index, key="__mode__")] = np.array(
            result.mode
        )
        for key, value in result_arrays(result).items():
            arrays[_POINT_KEY.format(index=index, key=key)] = value
    return arrays


def _copy_members(
    archive: zipfile.ZipFile, handle: IO[bytes], entry: bytes, prefix: str
) -> None:
    """Append an NPZ entry's deflated members, renamed under ``prefix``, to
    ``archive`` (which writes to ``handle``), each under a zip64 local
    header as ``np.savez_compressed`` writes them; the entry's archive
    comment, its stamp, stays behind."""
    with zipfile.ZipFile(io.BytesIO(entry)) as source:
        members = source.infolist()
    for member in members:
        # a local header: 30 bytes, name, extra field (lengths at offset 26)
        offset = member.header_offset
        name_len, extra_len = struct.unpack_from("<HH", entry, offset + 26)
        start = offset + 30 + name_len + extra_len
        info = zipfile.ZipInfo(prefix + member.filename, member.date_time)
        info.compress_type = member.compress_type
        info.flag_bits = member.flag_bits
        info.external_attr = member.external_attr
        info.CRC = member.CRC
        info.compress_size = member.compress_size
        info.file_size = member.file_size
        # zipfile has no public call that adds an already-deflated member.
        # Writing it at the archive's append offset and registering it in
        # the member list lets close() write the central directory (and any
        # zip64 end records) by the same code as for numpy's own members.
        info.header_offset = archive.start_dir
        handle.write(info.FileHeader(zip64=True))
        handle.write(entry[start : start + member.compress_size])
        archive.start_dir = handle.tell()
        archive.filelist.append(info)
        archive.NameToInfo[info.filename] = info


class PayloadWriter:
    """A job payload being written, one point at a time, in grid order."""

    def __init__(self, handle: IO[bytes]) -> None:
        self._handle = handle
        self._archive = zipfile.ZipFile(handle, "w", zipfile.ZIP_DEFLATED)
        #: Points appended so far.
        self.points = 0

    def add(
        self,
        mode: str,
        entry: bytes | None,
        result: SimulationResult | OpenSystemResult | None = None,
    ) -> None:
        """Append the next point: its ``mode`` label, then its entry's
        members; a point without an ``entry`` has its ``result`` encoded."""
        source = "entry"
        if entry is None:
            assert result is not None, "a point needs its entry or its result"
            entry, source = encode_entry(result), "encoded"
        prefix = _POINT_KEY.format(index=self.points, key="")
        name = f"{prefix}__mode__.npy"
        with self._archive.open(name, "w", force_zip64=True) as member:
            np.lib.format.write_array(member, np.array(mode))
        _copy_members(self._archive, self._handle, entry, prefix)
        self.points += 1
        _PAYLOAD_POINTS.labels(source=source).inc()

    def close(self) -> None:
        """Write the central directory; the payload then takes no more points."""
        self._archive.close()


@contextlib.contextmanager
def open_payload(path: str | Path) -> Iterator[PayloadWriter]:
    """A :class:`PayloadWriter` on ``path``, written through
    :func:`~repro.engine.cache.atomic_file`: the file appears, closed, when
    the block ends, and a block that raises (or a process killed inside it)
    leaves no payload behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_file(path) as handle:
        writer = PayloadWriter(handle)
        try:
            yield writer
        finally:
            writer.close()


def save_result_npz(
    path: str | Path,
    results: Sequence[SimulationResult | OpenSystemResult],
    entries: Sequence[bytes | None] | None = None,
) -> Path:
    """Write a job's result payload atomically; returns the final path.

    ``entries[i]`` is point ``i``'s cache entry (see
    :attr:`~repro.engine.SweepOutcome.entries`), or ``None`` to encode it.
    The points go through one :func:`open_payload` writer, so a failed
    write raises and leaves no payload behind.
    """
    if entries is None:
        entries = [None] * len(results)
    with open_payload(path) as payload:
        for result, entry in zip(results, entries, strict=True):
            payload.add(result.mode, entry, result)
    return Path(path)


def load_result_arrays(source: str | Path | IO[bytes]) -> dict[str, np.ndarray]:
    """Read a result payload, a file path or an open binary file, back into
    its flat array mapping."""
    with np.load(source, allow_pickle=False) as data:
        return {key: np.asarray(data[key]) for key in data.files}


def split_point_arrays(
    arrays: Mapping[str, np.ndarray],
) -> list[tuple[str, dict[str, np.ndarray]]]:
    """Regroup a flat payload into per-point ``(mode, arrays)`` entries.

    The inverse of :func:`outcome_arrays` up to the namespacing: entry ``i``
    holds point ``i``'s backend mode and its un-prefixed arrays, keyed by
    the field names of its result class.
    """
    grouped: dict[int, dict[str, np.ndarray]] = {}
    for full_key, value in arrays.items():
        prefix, _, key = full_key.partition("/")
        if not key or not prefix.startswith("point"):
            raise ValueError(f"unrecognized result key {full_key!r}")
        grouped.setdefault(int(prefix[len("point"):]), {})[key] = value
    points = []
    for index in sorted(grouped):
        entry = grouped[index]
        mode = str(entry.pop("__mode__"))
        points.append((mode, entry))
    return points
