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

A payload deflates nothing again: :func:`save_result_npz` copies each
point's deflated members out of its cache entry
(:func:`~repro.engine.cache.encode_entry` bytes) and adds only the small
``__mode__`` member and the zip headers.  Both files deflate the same
``.npy`` bytes the same way, so the bytes equal those of
``np.savez_compressed(**outcome_arrays(results))``.
"""

from __future__ import annotations

import io
import struct
import zipfile
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from ..backends import OpenSystemResult, SimulationResult
from ..engine.cache import atomic_file, encode_entry, result_arrays
from ..obs import REGISTRY

__all__ = [
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
    header as ``np.savez_compressed`` writes them."""
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


def save_result_npz(
    path: str | Path,
    results: Sequence[SimulationResult | OpenSystemResult],
    entries: Sequence[bytes | None] | None = None,
) -> Path:
    """Write a job's result payload atomically; returns the final path.

    ``entries[i]`` is point ``i``'s cache entry (see
    :attr:`~repro.engine.SweepOutcome.entries`), or ``None`` to encode it.
    The file is written through :func:`~repro.engine.cache.atomic_file`, so
    a failed write raises and leaves no payload behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if entries is None:
        entries = [None] * len(results)
    with atomic_file(path) as handle, zipfile.ZipFile(
        handle, "w", zipfile.ZIP_DEFLATED
    ) as archive:
        for index, (result, entry) in enumerate(zip(results, entries, strict=True)):
            prefix = _POINT_KEY.format(index=index, key="")
            name = f"{prefix}__mode__.npy"
            with archive.open(name, "w", force_zip64=True) as member:
                np.lib.format.write_array(member, np.array(result.mode))
            if entry is None:
                entry = encode_entry(result)
            _copy_members(archive, handle, entry, prefix)
    encoded = sum(entry is None for entry in entries)
    _PAYLOAD_POINTS.labels(source="encoded").inc(encoded)
    _PAYLOAD_POINTS.labels(source="entry").inc(len(results) - encoded)
    return path


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
