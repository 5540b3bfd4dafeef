"""The service's job path moves bytes: checked hits, shipped entries, a
streamed payload.

* A cache entry that fails its check — truncated, missing a member, a
  reserved deflate block type, a flipped bit only the CRC sees, a sample
  count that contradicts its config, a directory record that zipfile
  cannot open, a flipped attribute bit that only the entry's stamp sees —
  is a miss: the point is resimulated,
  through the library runner and through a service job alike, and the
  job's payload still equals the library run's bytes.
* No single flipped bit of an entry passes the check, and an entry without
  a stamp is a miss.
* A job's traced memory does not grow with its point count.
* A killed service leaves no pool worker behind.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import signal
import struct
import subprocess
import sys
import time
import tracemalloc
import zipfile
import zlib
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.backends import run_simulation
from repro.engine import ResultCache, SweepRunner, build_grid, grid_mode
from repro.engine.cache import (
    _ENTRY_ERRORS,
    _check_entry,
    encode_entry,
    result_arrays,
)
from repro.obs import REGISTRY
from repro.service import SweepService, save_result_npz

#: A 4-point ``fig01`` grid.
GRID = "fig01"
OVERRIDES = {
    "workstation_counts": [2, 5],
    "utilizations": [0.05, 0.10],
    "num_jobs": 80,
    "num_batches": 4,
}
MODE = grid_mode(GRID)


def _grid():
    return build_grid(
        GRID,
        **{k: tuple(v) if isinstance(v, list) else v for k, v in OVERRIDES.items()},
    )


def _member_data(entry: bytes) -> dict[str, tuple[zipfile.ZipInfo, int]]:
    """Each member's directory record and the offset of its deflated bytes."""
    with zipfile.ZipFile(io.BytesIO(entry)) as archive:
        members = archive.infolist()
    spans = {}
    for member in members:
        offset = member.header_offset
        name_len, extra_len = struct.unpack_from("<HH", entry, offset + 26)
        spans[member.filename] = (member, offset + 30 + name_len + extra_len)
    return spans


def _truncated(entry: bytes, config) -> bytes:
    return entry[: len(entry) // 2]


def _missing_member(entry: bytes, config) -> bytes:
    with np.load(io.BytesIO(entry)) as data:
        arrays = {key: data[key] for key in data.files[:-1]}
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    return buffer.getvalue()


def _reserved_block_type(member: str):
    """Set the block type of the member's first deflate block to 11, which
    inflate refuses with ``zlib.error``."""

    def corrupt(entry: bytes, config) -> bytes:
        _, start = _member_data(entry)[f"{member}.npy"]
        flipped = bytearray(entry)
        flipped[start] |= 0b110
        return bytes(flipped)

    return corrupt


def _flip_caught_by_crc(entry: bytes, config) -> bytes:
    """The first bit flip in the second half of ``task_times`` that still
    inflates to the member's size, to other bytes."""
    member, start = _member_data(entry)["task_times.npy"]
    end = start + member.compress_size
    for offset in range((start + end) // 2, end):
        for bit in range(8):
            flipped = bytearray(entry)
            flipped[offset] ^= 1 << bit
            inflater = zlib.decompressobj(-zlib.MAX_WBITS)
            try:
                data = inflater.decompress(bytes(flipped[start:end]))
            except zlib.error:
                continue
            if (
                inflater.eof
                and len(data) == member.file_size
                and zlib.crc32(data) != member.CRC
            ):
                return bytes(flipped)
    raise AssertionError("no bit flip inflates")


def _wrong_sample_count(entry: bytes, config) -> bytes:
    other = dataclasses.replace(config, num_jobs=config.num_jobs // 2)
    return encode_entry(run_simulation(other, MODE))


def _directory_flip(offset: int):
    """Flip the low bit at ``offset`` in the first central-directory record."""

    def corrupt(entry: bytes, config) -> bytes:
        flipped = bytearray(entry)
        flipped[entry.index(b"PK\x01\x02") + offset] ^= 1
        return bytes(flipped)

    return corrupt


CORRUPTIONS = {
    "truncated": _truncated,
    "missing-member": _missing_member,
    "block-type-job_times": _reserved_block_type("job_times"),
    "block-type-task_times": _reserved_block_type("task_times"),
    "block-type-measured_owner_utilization": _reserved_block_type(
        "measured_owner_utilization"
    ),
    "crc-flip": _flip_caught_by_crc,
    "sample-count": _wrong_sample_count,
    # zipfile refuses these with RuntimeError / NotImplementedError
    "encrypted-flag": _directory_flip(8),
    "compression-method": _directory_flip(10),  # 8 -> 9, deflate64
    # zipfile reads it and the members inflate: only the stamp sees it
    "external-attributes": _directory_flip(38),
}


def _corrupt_evictions() -> float:
    return REGISTRY.get("repro_cache_corrupt_evictions_total").value


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
class TestCorruptEntryIsAMiss:
    def test_the_runner_resimulates_it(self, kind, tmp_path):
        config = _grid()[1]
        runner = SweepRunner(jobs=1, cache=tmp_path / "cache")
        first = runner.run([config], mode=MODE)
        path = runner.cache.path_for(config, MODE)
        entry = path.read_bytes()
        corrupted = CORRUPTIONS[kind](entry, config)
        assert corrupted != entry
        path.write_bytes(corrupted)
        before = _corrupt_evictions()
        second = runner.run([config], mode=MODE)
        assert second.simulated == 1 and second.cache_hits == 0
        assert _corrupt_evictions() - before == 1
        assert second.entries == [entry] and path.read_bytes() == entry
        np.testing.assert_array_equal(second[0].task_times, first[0].task_times)

    def test_a_service_job_resimulates_it(self, kind, tmp_path):
        service = SweepService(tmp_path / "service", jobs=1)
        try:
            service.submit_grid(GRID, OVERRIDES)
            assert service.run_pending() == 1
            config = _grid()[2]
            path = service.cache.path_for(config, MODE)
            path.write_bytes(CORRUPTIONS[kind](path.read_bytes(), config))
            record = service.submit_grid(GRID, OVERRIDES)
            assert service.run_pending() == 1
            done = service.status(record.job_id)
            assert done.status == "done", done.error
            assert done.simulated == 1 and done.cache_hits == 3
            payload = service.result_path(record.job_id)
        finally:
            service.close()
        library = SweepRunner(jobs=1).run(_grid(), mode=MODE)
        expected = save_result_npz(tmp_path / "library.npz", library.results)
        assert payload.read_bytes() == expected.read_bytes()


class TestTheStamp:
    def test_no_single_bit_flip_passes_the_check(self, tmp_path):
        # fig01 at W=2, U=0.1 and num_jobs 40: an 837-byte entry
        (config,) = build_grid(
            GRID, workstation_counts=(2,), utilizations=(0.1,), num_jobs=40
        )
        cache = ResultCache(tmp_path / "cache")
        SweepRunner(jobs=1, cache=cache).run([config], mode=MODE)
        path = cache.path_for(config, MODE)
        entry = path.read_bytes()
        _check_entry(config, entry)
        passed = []
        for bit in range(len(entry) * 8):
            flipped = bytearray(entry)
            flipped[bit // 8] ^= 1 << (bit % 8)
            try:
                _check_entry(config, bytes(flipped))
            except _ENTRY_ERRORS:
                continue
            passed.append(bit)
        assert passed == []
        # through the cache, one flip in every 32 bytes: deleted and counted
        offsets = [*range(0, len(entry), 32), len(entry) - 1]
        before = _corrupt_evictions()
        for offset in offsets:
            flipped = bytearray(entry)
            flipped[offset] ^= 1
            path.write_bytes(bytes(flipped))
            assert cache.read_entry(config, MODE) is None
            assert not path.exists()
        assert _corrupt_evictions() - before == len(offsets)

    def test_an_unstamped_entry_is_a_miss_then_rewritten(self, tmp_path):
        # what np.savez_compressed writes, as a cache without stamps did
        config = _grid()[1]
        cache = ResultCache(tmp_path / "cache")
        path = cache.path_for(config, MODE)
        np.savez_compressed(path, **result_arrays(run_simulation(config, MODE)))
        unstamped = path.read_bytes()
        runner = SweepRunner(jobs=1, cache=cache)
        before = _corrupt_evictions()
        first = runner.run([config], mode=MODE)
        assert first.simulated == 1 and first.cache_hits == 0
        assert _corrupt_evictions() - before == 1
        entry = path.read_bytes()
        assert entry == first.entries[0]
        assert entry[-8:] == b"%08x" % zlib.crc32(entry[:-8])
        assert entry[:-10] + b"\0\0" == unstamped
        second = runner.run([config], mode=MODE)
        assert second.simulated == 0 and second.cache_hits == 1
        assert second.entries == [entry]


class TestNoArrayReachesTheService:
    def test_pool_workers_ship_entries_and_results_decode_on_access(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        outcome = SweepRunner(jobs=2, cache=cache).run(_grid(), mode=MODE)
        assert outcome.held == [None] * 4
        assert all(isinstance(entry, bytes) for entry in outcome.entries)
        assert "results" not in vars(outcome)
        assert len(outcome) == 4 and "4 points" in outcome.summary()
        assert "results" not in vars(outcome)
        bare = SweepRunner(jobs=1).run(_grid(), mode=MODE)
        for decoded, result in zip(outcome, bare):
            assert decoded.task_times.dtype == np.float64
            np.testing.assert_array_equal(decoded.task_times, result.task_times)

    def test_job_memory_does_not_grow_with_its_points(self, tmp_path):
        # Every point is new (its own utilization) and holds 20 x 100 task
        # times.  A job that kept each point's arrays and entry until its
        # payload was written peaked 5 MB higher at 256 points than at 16.
        service = SweepService(tmp_path / "service", jobs=2)
        peaks = {}
        tracemalloc.start()
        try:
            offset = 0
            for points in (16, 64, 256):
                utilizations = [0.001 + 0.0003 * (offset + i) for i in range(points)]
                offset += points
                record = service.submit_grid(
                    GRID,
                    {
                        "workstation_counts": [100],
                        "utilizations": utilizations,
                        "num_jobs": 20,
                    },
                )
                start, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                assert service.run_pending() == 1
                _, peak = tracemalloc.get_traced_memory()
                assert service.status(record.job_id).simulated == points
                peaks[points] = peak - start
        finally:
            tracemalloc.stop()
            service.close()
        assert peaks[256] - peaks[16] < 2 << 20, peaks


def _children(pid: int) -> list[int]:
    """Pids whose parent is ``pid``, read from ``/proc``."""
    children = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            with contextlib.suppress(OSError):
                stat = (entry / "stat").read_text()
                if int(stat.rpartition(")")[2].split()[1]) == pid:
                    children.append(int(entry.name))
    return children


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs the service's code: it exists, is no zombie (a
    container's pid 1 may never reap one) and has ``repro.cli`` on its
    command line, so a reused pid is not taken for it."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
        cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return False
    state = stat.rpartition(")")[2].split()[0]
    return state not in ("Z", "X") and b"repro.cli" in cmdline


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_pool_workers_die_with_a_killed_service(tmp_path):
    root = tmp_path / "service"
    queued = SweepService(root, jobs=1)
    queued.submit_grid(
        GRID,
        {
            "workstation_counts": [80, 100],
            "utilizations": [0.05, 0.1, 0.2],
            "num_jobs": 10_000,
        },
    )
    queued.close()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    serve = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--root", str(root),
         "--port", "0", "--jobs", "2", "--quiet"],
        stdout=subprocess.DEVNULL, env=env,
    )
    children: list[int] = []
    try:
        deadline = time.monotonic() + 60
        while len(children) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
            children = _children(serve.pid)
        assert len(children) == 2, "the queued job started no pool"
        serve.kill()
        serve.wait(timeout=30)
        time.sleep(5)
        assert [pid for pid in children if _alive(pid)] == []
    finally:
        serve.kill()
        serve.wait(timeout=30)
        for pid in filter(_alive, children):
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
