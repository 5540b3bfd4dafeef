"""Tests for the service's shard loop and the NPZ result payloads."""

from __future__ import annotations

import hashlib
import io
import zlib

import numpy as np
import pytest

from repro.backends import SimulationConfig
from repro.core import ScenarioSpec
from repro.engine import ResultCache, SweepRunner, build_grid, grid_mode
from repro.engine.cache import encode_entry, result_arrays
from repro.service import (
    SweepService,
    load_result_arrays,
    outcome_arrays,
    save_result_npz,
    split_point_arrays,
)
from repro.workload import OwnerActivityTrace


def savez_bytes(arrays) -> bytes:
    """The reference encoding: ``np.savez_compressed`` of a flat mapping."""
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    return buffer.getvalue()


def unstamped(entry: bytes) -> bytes:
    """An entry without its stamp: the end record's comment length back to
    0 and the 8 comment bytes dropped, so what ``np.savez_compressed``
    writes for the same arrays."""
    return entry[:-10] + b"\0\0"


def _trace_owner_points() -> list[SimulationConfig]:
    traces = [
        OwnerActivityTrace(horizon=300.0, busy_intervals=((10.0, 22.5),)),
        OwnerActivityTrace(horizon=300.0, busy_intervals=((60.0, 75.0),)),
    ]
    scenario = ScenarioSpec.from_traces(traces)
    return [
        SimulationConfig.from_scenario(
            scenario, task_demand=40.0, num_jobs=40, num_batches=4, seed=seed
        )
        for seed in (11, 12)
    ]


#: Two points of each result flavour: closed Monte-Carlo, open space-shared
#: admission, an open classless stream (whose widths, classes and restarts
#: the result constructor fills in) and trace-replaying owners on the kernel.
PAYLOAD_POINTS = {
    "closed": lambda: (
        build_grid("fig01", num_jobs=40, workstation_counts=(2, 5))[:2],
        "monte-carlo",
    ),
    "open-admission": lambda: (
        build_grid("admission-sweep", num_jobs=40)[:2],
        "open-system",
    ),
    "open-classless": lambda: (
        build_grid("arrival-sweep", num_jobs=40)[:2],
        "open-system",
    ),
    "trace-owner": lambda: (_trace_owner_points(), "event-driven"),
}

#: sha256 of ``encode_entry`` for point 0 of three kinds, its stamp removed
#: (:func:`unstamped`), computed when each backend still wrote its entry by
#: hand: the entry bytes of cache schema 7.
ENTRY_SHA256 = {
    "closed": "f91f1cf8ee9fdcdece7b39d3194c6f95882467a15c005fee455b007822d19d56",
    "open-admission": "6c353d691c1a7e1a8c3ffd8be7ac00a800222a0d79805d5b490414cb65cffcb4",
    "open-classless": "953e57a9ee22b499a48870ecb04d46dafc927e93f06305c911cd31abd5785de2",
}


#: A 4-point ``fig01`` grid.
SMALL_GRID = dict(
    num_jobs=80,
    num_batches=4,
    workstation_counts=(2, 5),
    utilizations=(0.05, 0.10),
)


@pytest.fixture
def small_grid():
    return build_grid("fig01", **SMALL_GRID)


class TestJobShards:
    """The service runs a job's grid shard by shard through its runner."""

    def test_sharded_job_is_bitwise_equal_to_one_call(
        self, small_grid, tmp_path, monkeypatch
    ):
        # Seeds derive from each point's config, never from batch position,
        # so slicing the grid into shards must not perturb a single byte.
        monkeypatch.setattr("repro.service.service.SHARD_SIZE", 3)
        service = SweepService(tmp_path / "service", jobs=1)
        record = service.submit_grid("fig01", SMALL_GRID)
        assert record.shards_total == 2
        assert service.run_pending() == 1
        done = service.status(record.job_id)
        assert done is not None and done.status == "done"
        assert done.shards_completed == 2 and done.points_completed == 4
        whole = SweepRunner(jobs=1).run(small_grid, mode=grid_mode("fig01"))
        payload = service.result_path(record.job_id)
        assert payload is not None
        assert payload.read_bytes() == savez_bytes(outcome_arrays(whole.results))

    def test_progress_streams_after_every_shard(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.service.service.SHARD_SIZE", 2)
        service = SweepService(tmp_path / "service", jobs=1)
        save = service.store.save
        seen: list[tuple[int, int, int]] = []

        def spy(record):
            if record.status == "running":
                seen.append(
                    (record.shards_completed, record.points_completed, record.simulated)
                )
            save(record)

        monkeypatch.setattr(service.store, "save", spy)
        record = service.submit_grid("fig01", SMALL_GRID)
        service.run_pending()
        # No running save after the last shard: the done save carries it.
        assert seen == [(0, 0, 0), (1, 2, 2)]
        done = service.status(record.job_id)
        assert (done.shards_completed, done.points_completed, done.simulated) == (2, 4, 4)
        # Resubmission: the shared cache serves every shard, nothing simulates.
        seen.clear()
        record = service.submit_grid("fig01", SMALL_GRID)
        service.run_pending()
        assert seen == [(0, 0, 0), (1, 2, 0)]
        done = service.status(record.job_id)
        assert (done.shards_completed, done.points_completed, done.simulated) == (2, 4, 0)


class TestResultPayloads:
    def test_round_trip_and_split(self, small_grid, tmp_path):
        outcome = SweepRunner(jobs=1).run(small_grid, mode=grid_mode("fig01"))
        path = save_result_npz(tmp_path / "payload.npz", outcome.results)
        loaded = load_result_arrays(path)
        points = split_point_arrays(loaded)
        assert len(points) == len(small_grid)
        for result, (mode, arrays) in zip(outcome.results, points):
            assert mode == result.mode
            np.testing.assert_array_equal(arrays["job_times"], result.job_times)

    def test_payload_bytes_are_deterministic(self, small_grid, tmp_path):
        # np.savez_compressed pins its zip timestamps, so two payloads of
        # the same results are equal as *files* — the property the
        # service's end-to-end bitwise pin relies on.
        mode = grid_mode("fig01")
        a = SweepRunner(jobs=1).run(small_grid, mode=mode)
        b = SweepRunner(jobs=1).run(small_grid, mode=mode)
        path_a = save_result_npz(tmp_path / "a.npz", a.results)
        path_b = save_result_npz(tmp_path / "b.npz", b.results)
        assert path_a.read_bytes() == path_b.read_bytes()

    @pytest.mark.parametrize("kind", sorted(PAYLOAD_POINTS))
    def test_entry_is_savez_of_the_serialized_arrays(self, kind, tmp_path):
        # Apart from its stamp an entry is the savez file of its arrays, so
        # the payload can copy its members as numpy would have written them.
        configs, mode = PAYLOAD_POINTS[kind]()
        cache = ResultCache(tmp_path)
        outcome = SweepRunner(jobs=1, cache=cache).run(configs, mode=mode)
        for config, result, entry in zip(configs, outcome, outcome.entries):
            arrays = result_arrays(result)
            assert entry == encode_entry(result)
            assert unstamped(entry) == savez_bytes(arrays)
            assert cache.path_for(config, result.mode).read_bytes() == entry

    @pytest.mark.parametrize("kind", sorted(ENTRY_SHA256))
    def test_entry_bytes_are_pinned(self, kind):
        configs, mode = PAYLOAD_POINTS[kind]()
        (result,) = SweepRunner(jobs=1).run(configs[:1], mode=mode)
        entry = encode_entry(result)
        assert entry[-8:] == b"%08x" % zlib.crc32(entry[:-8])
        digest = hashlib.sha256(unstamped(entry)).hexdigest()
        assert digest == ENTRY_SHA256[kind]

    @pytest.mark.parametrize("kind", sorted(PAYLOAD_POINTS))
    def test_payload_is_savez_of_outcome_arrays_for_every_entry_source(
        self, kind, tmp_path
    ):
        configs, mode = PAYLOAD_POINTS[kind]()
        cache = ResultCache(tmp_path / "cache")
        pooled = SweepRunner(jobs=2, cache=cache).run(configs, mode=mode)
        loaded = SweepRunner(jobs=1, cache=cache).run(configs, mode=mode)
        assert pooled.simulated == loaded.cache_hits == len(configs) == 2
        reference = savez_bytes(outcome_arrays(pooled.results))
        sources = {
            "pool-worker": pooled.entries,
            "load": loaded.entries,
            "none": [None, None],
            "mixed": [loaded.entries[0], None],
        }
        for name, entries in sources.items():
            for results in (pooled.results, loaded.results):
                path = save_result_npz(tmp_path / f"{name}.npz", results, entries)
                assert path.read_bytes() == reference, name

    def test_entries_must_match_the_results(self, small_grid, tmp_path):
        outcome = SweepRunner(jobs=1).run(small_grid[:2], mode=grid_mode("fig01"))
        with pytest.raises(ValueError):
            save_result_npz(tmp_path / "payload.npz", outcome.results, [None])
        assert list(tmp_path.iterdir()) == []

    def test_split_rejects_foreign_keys(self):
        with pytest.raises(ValueError, match="unrecognized"):
            split_point_arrays({"not-a-point-key": np.zeros(1)})

    def test_save_leaves_no_temp_file_behind(self, small_grid, tmp_path):
        outcome = SweepRunner(jobs=1).run(
            small_grid[:1], mode=grid_mode("fig01")
        )
        save_result_npz(tmp_path / "payload.npz", outcome.results)
        assert [p.name for p in tmp_path.glob("*")] == ["payload.npz"]
