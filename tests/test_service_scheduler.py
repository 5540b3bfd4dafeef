"""Tests for the shard scheduler and the NPZ result payloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ResultCache, SweepRunner, build_grid, grid_mode
from repro.service import (
    ShardScheduler,
    load_result_arrays,
    outcome_arrays,
    save_result_npz,
    split_point_arrays,
)


@pytest.fixture
def small_grid():
    return build_grid(
        "fig01",
        num_jobs=80,
        num_batches=4,
        workstation_counts=(2, 5),
        utilizations=(0.05, 0.10),
    )


class TestShardScheduler:
    def test_shards_preserve_grid_order(self, small_grid):
        scheduler = ShardScheduler(SweepRunner(jobs=1), shard_size=3)
        shards = scheduler.shards(small_grid)
        assert [len(shard) for shard in shards] == [3, 1]
        assert [c for shard in shards for c in shard] == small_grid

    def test_shard_size_validated(self):
        with pytest.raises(ValueError):
            ShardScheduler(SweepRunner(jobs=1), shard_size=0)

    def test_sharded_run_is_bitwise_equal_to_one_call(self, small_grid):
        # Seeds derive from each point's config, never from batch position,
        # so slicing the grid into shards must not perturb a single sample.
        mode = grid_mode("fig01")
        whole = SweepRunner(jobs=1).run(small_grid, mode=mode)
        sharded, progress = ShardScheduler(
            SweepRunner(jobs=1), shard_size=3
        ).execute(small_grid, mode)
        assert progress.points_completed == len(small_grid)
        assert progress.shards_completed == progress.shards_total == 2
        for lone, shard_result in zip(whole.results, sharded):
            np.testing.assert_array_equal(lone.job_times, shard_result.job_times)
            np.testing.assert_array_equal(lone.task_times, shard_result.task_times)

    def test_progress_streams_after_every_shard(self, small_grid, tmp_path):
        runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path))
        scheduler = ShardScheduler(runner, shard_size=2)
        seen: list[tuple[int, int, int]] = []
        scheduler.execute(
            small_grid,
            grid_mode("fig01"),
            on_shard=lambda p: seen.append(
                (p.shards_completed, p.points_completed, p.simulated)
            ),
        )
        assert seen == [(1, 2, 2), (2, 4, 4)]
        # Replay: the shared cache serves every shard, nothing simulates.
        seen.clear()
        scheduler.execute(
            small_grid,
            grid_mode("fig01"),
            on_shard=lambda p: seen.append(
                (p.shards_completed, p.points_completed, p.simulated)
            ),
        )
        assert seen == [(1, 2, 0), (2, 4, 0)]


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

    def test_split_rejects_foreign_keys(self):
        with pytest.raises(ValueError, match="unrecognized"):
            split_point_arrays({"not-a-point-key": np.zeros(1)})

    def test_save_leaves_no_temp_file_behind(self, small_grid, tmp_path):
        outcome = SweepRunner(jobs=1).run(
            small_grid[:1], mode=grid_mode("fig01")
        )
        save_result_npz(tmp_path / "payload.npz", outcome.results)
        assert [p.name for p in tmp_path.glob("*")] == ["payload.npz"]
