"""Tests for the sweep-execution engine: cache, runner, grids and CLI."""

from __future__ import annotations

import errno
import gc
import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from repro.backends import get_backend
from repro.cli import _grid_overrides, build_parser, main
from repro.cluster import MonteCarloSampler, SimulationConfig, run_simulation
from repro.core import OwnerSpec
from repro.desim import StreamRegistry
from repro.engine import (
    GRID_AXES,
    GRID_NAMES,
    MAX_GRID_POINTS,
    MAX_POINT_TASKS,
    ResultCache,
    SweepRunner,
    build_grid,
    config_fingerprint,
    grid_mode,
    parallel_map,
    resolve_jobs,
)
from repro.engine.cache import result_arrays
from repro.engine.codec import config_to_json
from repro.experiments import run_simulation_validation
from repro.obs import REGISTRY, SimEventTap, install_sim_tap, uninstall_sim_tap
from repro.service import JobRecord, SweepJobSpec


@pytest.fixture
def small_grid() -> list[SimulationConfig]:
    return build_grid(
        "fig01",
        num_jobs=120,
        num_batches=4,
        workstation_counts=(5, 10),
        utilizations=(0.05, 0.10),
    )


class TestConfigFingerprint:
    def test_stable_for_equal_configs(self, paper_owner):
        a = SimulationConfig(workstations=5, task_demand=100, owner=paper_owner, seed=7)
        b = SimulationConfig(workstations=5, task_demand=100, owner=paper_owner, seed=7)
        assert config_fingerprint(a, "monte-carlo") == config_fingerprint(b, "monte-carlo")

    def test_differs_per_field_and_mode(self, paper_owner):
        base = SimulationConfig(workstations=5, task_demand=100, owner=paper_owner, seed=7)
        variants = [
            SimulationConfig(workstations=6, task_demand=100, owner=paper_owner, seed=7),
            SimulationConfig(workstations=5, task_demand=200, owner=paper_owner, seed=7),
            SimulationConfig(workstations=5, task_demand=100, owner=paper_owner, seed=8),
            SimulationConfig(
                workstations=5,
                task_demand=100,
                owner=OwnerSpec(demand=10.0, utilization=0.2),
                seed=7,
            ),
        ]
        keys = {config_fingerprint(v, "monte-carlo") for v in variants}
        keys.add(config_fingerprint(base, "monte-carlo"))
        keys.add(config_fingerprint(base, "event-driven"))
        assert len(keys) == len(variants) + 2


class TestResultCache:
    def test_roundtrip(self, tmp_path, paper_owner):
        cache = ResultCache(tmp_path / "cache")
        config = SimulationConfig(
            workstations=4, task_demand=50, owner=paper_owner, num_jobs=80, num_batches=4
        )
        result = run_simulation(config, "monte-carlo")
        assert cache.load(config, "monte-carlo") is None
        cache.store(config, "monte-carlo", result)
        loaded = cache.load(config, "monte-carlo")
        assert loaded is not None
        np.testing.assert_array_equal(loaded.job_times, result.job_times)
        np.testing.assert_array_equal(loaded.task_times, result.task_times)
        assert loaded.job_time_interval.interval.half_width == pytest.approx(
            result.job_time_interval.interval.half_width
        )
        assert loaded.measured_owner_utilization is None
        assert len(cache) == 1

    def test_roundtrip_preserves_measured_utilization(self, tmp_path, paper_owner):
        cache = ResultCache(tmp_path)
        config = SimulationConfig(
            workstations=2, task_demand=40, owner=paper_owner, num_jobs=60, num_batches=4
        )
        result = run_simulation(config, "event-driven")
        assert result.measured_owner_utilization is not None
        cache.store(config, "event-driven", result)
        loaded = cache.load(config, "event-driven")
        assert loaded.measured_owner_utilization == pytest.approx(
            result.measured_owner_utilization
        )

    def test_corrupt_entry_is_a_miss(self, tmp_path, paper_owner):
        cache = ResultCache(tmp_path)
        config = SimulationConfig(
            workstations=2, task_demand=40, owner=paper_owner, num_jobs=60, num_batches=4
        )
        cache.path_for(config, "monte-carlo").write_bytes(b"not an npz file")
        assert cache.load(config, "monte-carlo") is None
        # the corrupt file is deleted so the rewrite is never shadowed
        assert not cache.path_for(config, "monte-carlo").exists()

    def test_entry_missing_a_field_is_a_miss(self, tmp_path, paper_owner):
        cache = ResultCache(tmp_path)
        config = SimulationConfig(
            workstations=2, task_demand=40, owner=paper_owner, num_jobs=60, num_batches=4
        )
        arrays = result_arrays(run_simulation(config, "monte-carlo"))
        del arrays["measured_owner_utilization"]
        path = cache.path_for(config, "monte-carlo")
        np.savez_compressed(path, **arrays)
        assert cache.load(config, "monte-carlo") is None
        assert not path.exists()

    def test_load_labels_the_requested_mode(self, tmp_path, paper_owner):
        # the kernel shares the oracle's entry, and each load carries the
        # mode it was asked for
        cache = ResultCache(tmp_path)
        config = SimulationConfig(
            workstations=2, task_demand=40, owner=paper_owner, num_jobs=60, num_batches=4
        )
        cache.store(config, "event-driven", run_simulation(config, "event-driven"))
        assert cache.load(config, "event-kernel").mode == "event-kernel"
        assert cache.load(config, "event-driven").mode == "event-driven"
        with pytest.raises(ValueError, match="unknown simulation mode"):
            cache.load(config, "no-such-mode")

    def test_truncated_entry_is_a_miss(self, tmp_path, paper_owner):
        """A writer killed mid-write leaves a torn NPZ; np.load raises
        zipfile.BadZipFile on it, which must degrade to a miss, not crash
        the sweep (regression: BadZipFile escaped the load handler)."""
        cache = ResultCache(tmp_path)
        config = SimulationConfig(
            workstations=2, task_demand=40, owner=paper_owner, num_jobs=60, num_batches=4
        )
        result = run_simulation(config, "monte-carlo")
        path = cache.store(config, "monte-carlo", result)
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        assert cache.load(config, "monte-carlo") is None
        assert not path.exists()
        # the cache recovers: the point stores and replays again
        cache.store(config, "monte-carlo", result)
        loaded = cache.load(config, "monte-carlo")
        assert loaded is not None
        np.testing.assert_array_equal(loaded.job_times, result.job_times)

    def test_truncated_entry_resimulates_through_the_runner(
        self, tmp_path, paper_owner
    ):
        config = SimulationConfig(
            workstations=2, task_demand=40, owner=paper_owner, num_jobs=60, num_batches=4
        )
        runner = SweepRunner(jobs=1, cache=tmp_path)
        first = runner.run([config])
        path = runner.cache.path_for(config, "monte-carlo")
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        second = runner.run([config])
        assert second.simulated == 1 and second.cache_hits == 0
        np.testing.assert_array_equal(first[0].job_times, second[0].job_times)

    def test_stale_tmp_files_swept_on_init_and_clear(self, tmp_path, paper_owner):
        root = tmp_path / "cache"
        root.mkdir()
        (root / "deadbeef.tmp").write_bytes(b"crashed writer leftovers")
        cache = ResultCache(root)
        assert list(root.glob("*.tmp")) == []
        config = SimulationConfig(
            workstations=2, task_demand=40, owner=paper_owner, num_jobs=60, num_batches=4
        )
        cache.store(config, "monte-carlo", run_simulation(config, "monte-carlo"))
        (root / "feedface.tmp").write_bytes(b"more leftovers")
        assert cache.clear() == 1  # tmp leftovers are swept but not counted
        assert list(root.glob("*.tmp")) == []
        assert len(cache) == 0

    def test_truncated_entry_leaks_no_file_handle(self, tmp_path, paper_owner):
        cache = ResultCache(tmp_path)
        config = SimulationConfig(
            workstations=2, task_demand=40, owner=paper_owner, num_jobs=60, num_batches=4
        )
        path = cache.store(config, "monte-carlo", run_simulation(config, "monte-carlo"))
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cache.load(config, "monte-carlo") is None
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_only_a_dead_writers_tmp_file_is_swept(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        live = root / f"{'ab' * 32}.{os.getpid()}.k2j4h6g8.tmp"
        child = subprocess.Popen([sys.executable, "-c", ""])
        child.wait()  # reaped: its pid names no process any more
        dead = root / f"{'cd' * 32}.{child.pid}.p1o3i5u7.tmp"
        live.write_bytes(b"a store in flight")
        dead.write_bytes(b"a crashed writer's leftovers")
        cache = ResultCache(root)
        assert live.exists() and not dead.exists()
        dead.write_bytes(b"a crashed writer's leftovers")
        assert cache.clear() == 0
        assert live.exists() and not dead.exists()

    @pytest.mark.parametrize("failure", ["second-opener-sweeps-tmp", "disk-full"])
    def test_failed_store_is_skipped_and_the_sweep_succeeds(
        self, tmp_path, paper_owner, monkeypatch, failure
    ):
        root = tmp_path / "cache"
        runner = SweepRunner(jobs=1, cache=root)
        config = SimulationConfig(
            workstations=2, task_demand=40, owner=paper_owner, num_jobs=60, num_batches=4
        )
        rename = os.replace

        def injected_rename(source, target):
            if failure == "disk-full":
                raise OSError(errno.ENOSPC, "No space left on device")
            # another process opens the shared directory between this
            # writer's write and its rename; the live writer's temp survives
            ResultCache(root)
            rename(source, target)

        monkeypatch.setattr(os, "replace", injected_rename)
        failures = REGISTRY.get("repro_cache_store_failures_total")
        before = failures.value
        outcome = runner.run([config])
        assert outcome.simulated == 1
        np.testing.assert_array_equal(
            outcome[0].job_times, run_simulation(config, "monte-carlo").job_times
        )
        if failure == "disk-full":
            assert not runner.cache.contains(config, "monte-carlo")
            assert list(root.iterdir()) == []
            assert failures.value - before == 1
        else:
            entry = runner.cache.path_for(config, "monte-carlo")
            assert list(root.iterdir()) == [entry]
            assert entry.read_bytes() == outcome.entries[0]
            assert failures.value == before

    def test_clear(self, tmp_path, paper_owner):
        cache = ResultCache(tmp_path)
        config = SimulationConfig(
            workstations=2, task_demand=40, owner=paper_owner, num_jobs=60, num_batches=4
        )
        cache.store(config, "monte-carlo", run_simulation(config, "monte-carlo"))
        assert cache.clear() == 1
        assert len(cache) == 0


class TestSweepRunner:
    def test_serial_matches_direct_loop(self, small_grid):
        outcome = SweepRunner(jobs=1).run(small_grid)
        for config, result in zip(small_grid, outcome):
            direct = run_simulation(config, "monte-carlo")
            np.testing.assert_array_equal(result.job_times, direct.job_times)

    def test_parallel_matches_serial_bitwise(self, small_grid):
        serial = SweepRunner(jobs=1).run(small_grid)
        parallel = SweepRunner(jobs=2).run(small_grid)
        assert parallel.jobs == 2
        for a, b in zip(serial, parallel):
            np.testing.assert_array_equal(a.job_times, b.job_times)
            np.testing.assert_array_equal(a.task_times, b.task_times)

    def test_cached_rerun_simulates_nothing(self, tmp_path, small_grid):
        runner = SweepRunner(jobs=1, cache=tmp_path / "cache")
        first = runner.run(small_grid)
        assert first.simulated == len(small_grid) and first.cache_hits == 0
        second = runner.run(small_grid)
        assert second.simulated == 0 and second.cache_hits == len(small_grid)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.job_times, b.job_times)

    def test_partial_cache_hits(self, tmp_path, small_grid):
        runner = SweepRunner(jobs=1, cache=tmp_path)
        runner.run(small_grid[:2])
        outcome = runner.run(small_grid)
        assert outcome.cache_hits == 2
        assert outcome.simulated == len(small_grid) - 2

    def test_cache_distinguishes_modes(self, tmp_path, paper_owner):
        config = SimulationConfig(
            workstations=3, task_demand=30, owner=paper_owner, num_jobs=60, num_batches=4
        )
        runner = SweepRunner(jobs=1, cache=tmp_path)
        runner.run([config], mode="monte-carlo")
        outcome = runner.run([config], mode="event-driven")
        assert outcome.simulated == 1 and outcome.cache_hits == 0

    def test_outcome_protocol(self, small_grid):
        outcome = SweepRunner(jobs=1).run(small_grid)
        assert len(outcome) == len(small_grid)
        assert outcome[0].mode == "monte-carlo"
        assert "simulated" in outcome.summary()

    def test_run_vectorized_agrees_statistically(self, small_grid):
        exact = SweepRunner(jobs=1).run(small_grid)
        fast = SweepRunner(jobs=1).run(small_grid, mode="monte-carlo-max")
        assert len(fast) == len(exact)
        for a, b in zip(exact, fast):
            assert a.config is b.config
            assert b.mean_job_time == pytest.approx(a.mean_job_time, rel=0.10)

    def test_invalid_jobs(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)
        assert resolve_jobs(None) >= 1


class TestVectorizedHeterogeneous:
    """The direct sampler runs heterogeneous grids; event points use the kernel."""

    def _hetero_grid(self, num_jobs: int = 4000):
        return build_grid(
            "hetero-concentration",
            num_jobs=num_jobs,
            num_batches=4,
            workstation_counts=(4, 8),
            utilizations=(0.1,),
            concentration_levels=(0.0, 0.5, 1.0),
        )

    def test_heterogeneous_batch_matches_scalar_within_ci(self):
        grid = self._hetero_grid(num_jobs=4000)
        exact = SweepRunner(jobs=1).run(grid)
        fast = SweepRunner(jobs=1).run(grid, mode="monte-carlo-max")
        for a, b in zip(exact, fast):
            tolerance = (
                a.job_time_interval.half_width + b.job_time_interval.half_width
            )
            assert abs(a.mean_job_time - b.mean_job_time) <= tolerance

    def test_ineligible_configs_route_to_the_kernel(self, paper_owner):
        from repro.core import JobArrivalSpec, ScenarioSpec

        eligible = self._hetero_grid(num_jobs=200)[:2]
        policy_config = SimulationConfig.from_scenario(
            ScenarioSpec.homogeneous(4, paper_owner, policy="self-scheduling"),
            task_demand=25.0, num_jobs=40, num_batches=4, seed=9,
        )
        open_config = SimulationConfig.from_scenario(
            ScenarioSpec.homogeneous(
                3, paper_owner, arrivals=JobArrivalSpec.poisson(rate=0.002)
            ),
            task_demand=30.0, num_jobs=30, num_batches=4, seed=9,
        )
        fractional = SimulationConfig(
            workstations=3, task_demand=20.5, owner=paper_owner,
            num_jobs=30, num_batches=4, seed=9,
        )
        runner = SweepRunner(jobs=1)
        # the requested mode is honoured: the sampler refuses what it
        # cannot express instead of rerouting it
        for config, refusal in (
            (policy_config, "static one-task-per-station"),
            (open_config, "job-arrival process"),
            (fractional, "integral task_demand"),
        ):
            with pytest.raises(ValueError, match=refusal):
                runner.run(eligible + [config], "monte-carlo-max")
        # under the oracle modes the sampler-ineligible points run on the
        # array kernel
        closed = runner.run([policy_config, fractional], "event-driven")
        opened = runner.run([open_config], "open-system")
        assert [r.mode for r in (*closed, *opened)] == ["event-kernel"] * 3
        assert (closed.mode, opened.mode) == ("event-driven", "open-system")

    def _space_shared_config(self, paper_owner, seed: int = 3):
        from repro.core import JobArrivalSpec, JobClassSpec, ScenarioSpec

        return SimulationConfig.from_scenario(
            ScenarioSpec.homogeneous(
                4,
                paper_owner,
                arrivals=JobArrivalSpec.poisson(
                    rate=0.002,
                    job_classes=(JobClassSpec("narrow", width=1),),
                ),
            ),
            task_demand=30.0, num_jobs=20, num_batches=4, seed=seed,
        )

    def test_space_shared_configs_kernel_batch_with_zero_fallbacks(
        self, paper_owner
    ):
        # space-shared admission has kernel transition tables, so its points
        # run on the kernel like every other open-system point
        space_shared = self._space_shared_config(paper_owner)
        outcome = SweepRunner(jobs=1).run([space_shared], mode="open-system")
        assert outcome[0].mode == "event-kernel"
        oracle = run_simulation(space_shared, "open-system")
        np.testing.assert_array_equal(outcome[0].end_times, oracle.end_times)
        np.testing.assert_array_equal(outcome[0].widths, oracle.widths)

    def test_every_registered_grid_family_is_fallback_free(self):
        # no point of any registered grid family runs on a generator oracle:
        # the event grids execute on the kernel, the rest on their own mode
        for name in GRID_NAMES:
            mode = grid_mode(name)
            grid = build_grid(name, num_jobs=8, num_batches=2)[:6]
            outcome = SweepRunner(jobs=1).run(grid, mode)
            expected = (
                "event-kernel" if mode in ("event-driven", "open-system") else mode
            )
            assert {result.mode for result in outcome} == {expected}, name

    def test_kernel_points_replay_from_the_cache(self, tmp_path, paper_owner):
        """Kernel-executed points are bitwise runs, so a configured cache
        serves them; it serves the direct sampler's points too."""
        fractional = SimulationConfig(
            workstations=2, task_demand=10.5, owner=paper_owner,
            num_jobs=20, num_batches=4, seed=5,
        )
        runner = SweepRunner(jobs=1, cache=tmp_path / "cache")
        first = runner.run([fractional], mode="event-driven")
        second = runner.run([fractional], mode="event-driven")
        assert first.simulated == 1 and second.cache_hits == 1
        assert second[0].mode == "event-kernel"
        np.testing.assert_array_equal(first[0].job_times, second[0].job_times)
        # the entry is the oracle's own: schema 6 shares the digest
        assert runner.cache.load(fractional, "event-driven") is not None
        sampled = self._hetero_grid(num_jobs=200)[:2]
        drawn = runner.run(sampled, "monte-carlo-max")
        again = runner.run(sampled, "monte-carlo-max")
        assert again.simulated == 0 and again.cache_hits == 2
        for a, b in zip(drawn, again):
            np.testing.assert_array_equal(a.job_times, b.job_times)
        # its entries are its own: a monte-carlo request is not served them
        assert runner.run(sampled, "monte-carlo").simulated == 2

    def test_cached_sweep_reports_no_phantom_degradations(
        self, tmp_path, paper_owner
    ):
        """A replayed point never executed, so a fully cached sweep reports
        nothing but cache hits."""
        grid = [
            self._space_shared_config(paper_owner, seed=seed) for seed in (3, 4)
        ]
        runner = SweepRunner(jobs=1, cache=tmp_path / "cache")
        first = runner.run(grid, mode="open-system")
        assert first.simulated == 2 and first.cache_hits == 0
        second = runner.run(grid, mode="open-system")
        assert second.cache_hits == 2 and second.simulated == 0
        assert second.summary().startswith(
            "2 points (0 simulated, 2 cached) mode=open-system"
        )
        assert "vectorized" not in second.summary()

    def test_kernel_results_are_composition_independent(self, paper_owner):
        """A point's result must not depend on what shares its sweep."""
        fractionals = [
            SimulationConfig(
                workstations=2, task_demand=10.5, owner=paper_owner,
                num_jobs=20, num_batches=4, seed=seed,
            )
            for seed in (1, 2, 3)
        ]
        together = SweepRunner(jobs=1).run(fractionals, mode="event-driven")
        for config, batched in zip(fractionals, together):
            alone = SweepRunner(jobs=1).run([config], mode="event-driven")
            np.testing.assert_array_equal(alone[0].job_times, batched.job_times)

    def test_kernel_results_match_direct_oracle_runs(self, paper_owner):
        fractional = SimulationConfig(
            workstations=3, task_demand=20.5, owner=paper_owner,
            num_jobs=30, num_batches=4, seed=9,
        )
        outcome = SweepRunner(jobs=1).run([fractional], mode="event-driven")
        direct = run_simulation(fractional, "event-driven")
        np.testing.assert_array_equal(outcome[0].job_times, direct.job_times)


class TestKernelRoute:
    """The one sweep route runs event grids on the kernel, through the pool."""

    @pytest.mark.parametrize(
        "name, overrides",
        [
            ("policy-compare", dict(workstation_counts=(4,))),
            ("arrival-sweep", dict(workstation_counts=(4,))),
            ("admission-sweep", dict(workstation_counts=(8,))),
        ],
    )
    def test_run_equals_the_oracle_bitwise(self, name, overrides):
        mode = grid_mode(name)
        grid = build_grid(
            name, num_jobs=20, num_batches=4, utilizations=(0.1,), **overrides
        )
        outcome = SweepRunner(jobs=2).run(grid, mode)
        assert outcome.mode == mode and len(outcome) == len(grid) > 1
        # every array of every point — job times, or arrival/start/end
        # times, demands, widths, class ids and restarts — equals a direct
        # oracle run, after crossing the process pool
        oracle = get_backend(mode)
        for config, result in zip(grid, outcome):
            assert result.mode == "event-kernel"
            expected = result_arrays(oracle(config).run())
            actual = result_arrays(result)
            assert expected.keys() == actual.keys()
            for key, value in expected.items():
                np.testing.assert_array_equal(actual[key], value, err_msg=key)

        # a config the requested oracle rejects fails with the oracle's error
        other = "open-system" if mode == "event-driven" else "event-driven"
        with pytest.raises(ValueError) as direct:
            get_backend(other)(grid[0]).run()
        with pytest.raises(ValueError) as routed:
            SweepRunner(jobs=1).run(grid[:1], other)
        assert str(routed.value) == str(direct.value)

        # a job record still carrying the old routing counters loads
        payload = JobRecord(
            job_id="job-000001-00000000",
            spec=SweepJobSpec.for_grid(name),
            mode=mode,
            total_points=len(grid),
        ).to_json()
        payload.update(
            kernel_points=len(grid),
            fallback_points=0,
            fallback_reasons={"open-system scenario": 0},
        )
        loaded = JobRecord.from_json(payload)
        assert (loaded.mode, loaded.total_points) == (mode, len(grid))

    def test_an_oracle_refusal_comes_before_any_point_runs(self):
        # the closed point first: a sweep that ran points one by one would
        # simulate it before the open point failed
        closed, opened = (
            build_grid(name, num_jobs=20, num_batches=4, workstation_counts=(4,))[0]
            for name in ("policy-compare", "arrival-sweep")
        )
        with pytest.raises(ValueError) as direct:
            get_backend("event-driven")(opened).run()
        tap = install_sim_tap(SimEventTap())
        try:
            with pytest.raises(ValueError) as routed:
                SweepRunner(jobs=1).run([closed, opened], "event-driven")
        finally:
            uninstall_sim_tap()
        assert str(routed.value) == str(direct.value)
        assert tap.events == []


class TestParallelMap:
    def test_preserves_order(self):
        items = list(range(7))
        assert parallel_map(_square, items, jobs=2) == [i * i for i in items]

    def test_serial_fallback(self):
        assert parallel_map(_square, [3], jobs=None) == [9]


def _square(x: int) -> int:
    return x * x


class TestGrids:
    def test_known_names(self):
        assert "fig01" in GRID_NAMES and "validation" in GRID_NAMES
        with pytest.raises(KeyError):
            build_grid("fig99")
        with pytest.raises(KeyError):
            grid_mode("fig99")

    def test_grid_shape_and_rounded_demands(self):
        grid = build_grid("fig01", workstation_counts=(3, 7), utilizations=(0.1, 0.2))
        assert len(grid) == 4
        for config in grid:
            # J=1000 split with ROUND always yields an integral task demand.
            assert float(config.task_demand) == int(config.task_demand)

    def test_scaled_grid_keeps_per_node_demand(self):
        grid = build_grid("fig09", workstation_counts=(10, 50), utilizations=(0.1,))
        assert all(config.task_demand == 100.0 for config in grid)

    def test_per_point_seeds_are_stable_and_distinct(self):
        a = build_grid("fig01", workstation_counts=(5, 10), utilizations=(0.05, 0.1))
        b = build_grid("fig01", workstation_counts=(5, 10), utilizations=(0.05, 0.1))
        assert [c.seed for c in a] == [c.seed for c in b]
        assert len({c.seed for c in a}) == len(a)

    def test_subsetting_preserves_point_seeds(self):
        full = build_grid("fig01", workstation_counts=(5, 10), utilizations=(0.1,))
        subset = build_grid("fig01", workstation_counts=(10,), utilizations=(0.1,))
        assert subset[0].seed == full[1].seed

    def test_base_seed_changes_points(self):
        a = build_grid("fig01", workstation_counts=(5,), utilizations=(0.1,), seed=0)
        b = build_grid("fig01", workstation_counts=(5,), utilizations=(0.1,), seed=1)
        assert a[0].seed != b[0].seed

    def test_explicit_empty_axes_give_empty_grid(self):
        assert build_grid("fig01", workstation_counts=()) == []
        assert build_grid("fig01", utilizations=()) == []

    def test_configs_are_pinned(self):
        # one sha256 over every config of these builds, in order: it pins
        # every seed, the walk order, every field and the scenario=None
        # form of the paper grids
        digest = hashlib.sha256()
        count = 0
        for name, overrides in PINNED_GRIDS:
            for config in build_grid(name, **overrides):
                blob = json.dumps(
                    config_to_json(config), sort_keys=True, separators=(",", ":")
                )
                digest.update(blob.encode())
                count += 1
        assert count == 513
        assert digest.hexdigest() == PINNED_GRIDS_SHA256

    def test_none_keeps_the_default_axis(self):
        assert build_grid("fig01", policies=None) == build_grid("fig01")
        assert build_grid(
            "admission-sweep", admission_policies=None
        ) == build_grid("admission-sweep")

    def test_unknown_override_is_refused(self):
        with pytest.raises(ValueError, match="unknown grid override 'widths'"):
            build_grid("admission-sweep", widths=(2,))

    def test_grid_over_the_point_cap_is_refused(self):
        # 400 x 300 = 120 000 points: refused before any config is built
        with pytest.raises(ValueError, match=f"at most {MAX_GRID_POINTS}"):
            build_grid(
                "fig01",
                workstation_counts=range(1, 401),
                utilizations=[i / 1000 for i in range(1, 301)],
            )


#: Builds whose configs ``TestGrids.test_configs_are_pinned`` hashes: every
#: registered grid at its defaults, then each axis and scalar overridden.
PINNED_GRIDS: list[tuple[str, dict]] = [(name, {}) for name in GRID_NAMES] + [
    (
        "fig01",
        {
            "workstation_counts": (3, 7),
            "utilizations": (0.1, 0.2),
            "seed": 5,
            "num_jobs": 100,
        },
    ),
    ("fig01", {"owner_demand": 5.0, "num_batches": 10, "confidence": 0.95}),
    ("fig09", {"workstation_counts": (10, 50)}),
    (
        "hetero-concentration",
        {
            "workstation_counts": (8, 16),
            "utilizations": (0.05, 0.1),
            "concentration_levels": (0.0, 0.25, 1.0),
        },
    ),
    (
        "policy-compare",
        {"policies": ("static", "self-scheduling"), "workstation_counts": (8,)},
    ),
    ("arrival-sweep", {"arrival_rates": (0.1, 0.9), "workstation_counts": (2, 4)}),
    (
        "admission-sweep",
        {
            "workstation_counts": (4, 8),
            "job_widths": (2, 6),
            "admission_policies": ("fcfs", "priority"),
            "arrival_rates": (0.3, 0.6),
        },
    ),
]
PINNED_GRIDS_SHA256 = "1abcc7fc5148f975bbaf7a7a6d4c8e141782cd9dd4c181fec1af725f04796cd3"


class TestDeriveSeed:
    def test_independent_of_stream_usage(self):
        fresh = StreamRegistry(42)
        used = StreamRegistry(42)
        used.stream("warmup")
        assert fresh.derive_seed("point") == used.derive_seed("point")

    def test_distinct_names_and_roots(self):
        registry = StreamRegistry(42)
        assert registry.derive_seed("a") != registry.derive_seed("b")
        assert StreamRegistry(1).derive_seed("a") != StreamRegistry(2).derive_seed("a")


class TestValidationThroughEngine:
    def test_jobs_do_not_change_results(self):
        kwargs = dict(
            workstation_counts=(5, 10), utilizations=(0.1,), num_jobs=400
        )
        serial = run_simulation_validation(jobs=1, **kwargs)
        parallel = run_simulation_validation(jobs=2, **kwargs)
        for a, b in zip(serial, parallel):
            assert a.simulated_job_time == b.simulated_job_time

    def test_cache_dir_replays(self, tmp_path):
        kwargs = dict(workstation_counts=(5,), utilizations=(0.1,), num_jobs=400)
        first = run_simulation_validation(cache_dir=tmp_path, **kwargs)
        second = run_simulation_validation(cache_dir=tmp_path, **kwargs)
        assert first[0].simulated_job_time == second[0].simulated_job_time


class TestSweepCli:
    ARGS = [
        "sweep",
        "fig01",
        "--num-jobs", "60",
        "--workstations", "5,10",
        "--utilizations", "0.1",
        "--jobs", "1",
        "--seed", "3",
    ]

    def test_smoke_with_cache(self, capsys, tmp_path):
        args = self.ARGS + ["--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "2 points (2 simulated, 0 cached)" in out
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "2 points (0 simulated, 2 cached)" in out

    def test_no_cache(self, capsys):
        assert main(self.ARGS + ["--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "cache:" not in out
        assert "[monte-carlo] W=5" in out

    def test_unknown_grid(self, capsys):
        assert main(["sweep", "fig99", "--no-cache"]) == 2
        assert "unknown sweep grid" in capsys.readouterr().err

    def test_bad_jobs_value(self, capsys):
        assert main(self.ARGS[:2] + ["--no-cache", "--jobs", "0"]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err

    def test_malformed_workstations_list(self, capsys):
        args = ["sweep", "fig01", "--no-cache", "--workstations", "5,x"]
        assert main(args) == 2
        assert "invalid literal" in capsys.readouterr().err

    #: axis key -> (a grid with the axis, flag value, the parsed tuple)
    AXIS_FLAGS = {
        "workstation_counts": ("fig01", "2,4", (2, 4)),
        "utilizations": ("fig01", "0.05,0.1", (0.05, 0.1)),
        "concentration_levels": ("hetero-concentration", "0,0.5", (0.0, 0.5)),
        "policies": (
            "policy-compare", "static,self-scheduling", ("static", "self-scheduling")
        ),
        "arrival_rates": ("arrival-sweep", "0.25,0.5", (0.25, 0.5)),
        "job_widths": ("admission-sweep", "2,4", (2, 4)),
        "admission_policies": ("admission-sweep", "fcfs,priority", ("fcfs", "priority")),
    }

    @pytest.mark.parametrize("axis", GRID_AXES, ids=lambda axis: axis.key)
    def test_override_flag_round_trip(self, axis):
        grid, text, expected = self.AXIS_FLAGS[axis.key]
        args = build_parser().parse_args(["sweep", grid, axis.flag, text])
        overrides = _grid_overrides(args)
        assert overrides[axis.key] == expected
        assert all(type(value) is axis.type for value in overrides[axis.key])
        assert build_grid(grid, **overrides)

    def test_grid_over_the_point_cap_exits_2(self, capsys):
        args = [
            "sweep", "fig01", "--no-cache",
            "--workstations", ",".join(str(w) for w in range(1, 401)),
            "--utilizations", ",".join(str(i / 1000) for i in range(1, 301)),
        ]
        assert main(args) == 2
        assert f"at most {MAX_GRID_POINTS}" in capsys.readouterr().err

    def test_point_over_the_task_cap_exits_2(self, capsys):
        # refused before any station is built: a hetero-concentration point
        # builds one per workstation
        args = [
            "sweep", "hetero-concentration", "--no-cache",
            "--num-jobs", "2", "--workstations", str(2**63 - 1),
        ]
        assert main(args) == 2
        assert f"at most {MAX_POINT_TASKS}" in capsys.readouterr().err

    def test_vectorized_path(self, capsys):
        # the direct sampler is a mode like any other
        assert main(self.ARGS + ["--mode", "monte-carlo-max", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "2 points (2 simulated, 0 cached) mode=monte-carlo-max" in out
        assert "[monte-carlo-max] W=5" in out
        assert "cache:" not in out

    def test_vectorized_kernel_grid_replays_from_the_cache(self, capsys, tmp_path):
        # An event-driven grid runs on the array kernel and a monte-carlo-max
        # grid on the direct sampler; both are per-point runs, so a second
        # run replays every point with the same lines.
        cache = ["--cache-dir", str(tmp_path / "cache")]
        kernel = [
            "sweep", "policy-compare",
            "--num-jobs", "30",
            "--workstations", "4",
            "--utilizations", "0.1",
        ]
        sampled = self.ARGS + ["--mode", "monte-carlo-max"]

        def lines(out):
            return [line for line in out.splitlines() if line.startswith("[")]

        for args, n, label in ((kernel, 3, "event-kernel"), (sampled, 2, "monte-carlo-max")):
            assert main(args + cache) == 0
            first = capsys.readouterr().out
            assert f"{n} points ({n} simulated, 0 cached)" in first
            assert f"[{label}]" in first
            assert main(args + cache) == 0
            again = capsys.readouterr().out
            assert f"{n} points (0 simulated, {n} cached)" in again
            assert lines(again) == lines(first)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "args, backend",
        [
            (["policy-compare", "--mode", "monte-carlo"], "monte-carlo"),
            (["policy-compare", "--mode", "monte-carlo-max"], "monte-carlo-max"),
            (["fig01", "--mode", "open-system"], "open-system"),
        ],
        ids=["monte-carlo", "monte-carlo-max", "open-system"],
    )
    def test_a_refused_mode_exits_2_with_one_line(self, capsys, args, backend, jobs):
        argv = ["sweep", *args, "--num-jobs", "20", "--workstations", "2,3"]
        assert main(argv + ["--utilizations", "0.1", "--no-cache", "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert f"the {backend} backend" in captured.err
        assert "Traceback" not in captured.err
        assert "points (" not in captured.out

    def test_profile_prints_cumulative_stats(self, capsys):
        args = self.ARGS + ["--no-cache", "--mode", "event-driven", "--profile", "5"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "Ordered by: cumulative time" in out
        assert "restriction <5>" in out
        # event-driven points run on the kernel, whose hot path dominates
        assert "kernel/machine.py" in out

    def test_trace_and_profile_combine(self, capsys, tmp_path):
        # A traced sweep is the same SweepRunner.run call as an untraced
        # one, so it profiles too and prints the same points.
        assert main(self.ARGS + ["--no-cache"]) == 0
        bare = capsys.readouterr().out
        trace = tmp_path / "trace.json"
        args = self.ARGS + ["--no-cache", "--trace", str(trace), "--profile", "5"]
        assert main(args) == 0
        traced = capsys.readouterr().out
        assert "Ordered by: cumulative time" in traced

        def points(out):
            return [line for line in out.splitlines() if line.startswith("[")]

        assert len(points(bare)) == 2
        assert points(traced) == points(bare)
        events = json.loads(trace.read_text())["traceEvents"]
        names = [event["name"] for event in events if event["ph"] == "X"]
        assert names.count("sweep") == 1
        assert names.count("point") == 2
        assert "shard" not in names

    def test_profile_with_full_cache_reports_nothing_ran(self, capsys, tmp_path):
        args = self.ARGS + ["--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--profile"]) == 0
        out = capsys.readouterr().out
        assert "no profile collected" in out


class TestSweepProfiling:
    def test_run_collects_merged_worker_profiles(self, small_grid):
        outcome = SweepRunner(jobs=2).run(
            small_grid, mode="monte-carlo", profile=True
        )
        assert outcome.profile is not None
        report = outcome.profile_report(top=10)
        assert "cumulative" in report
        # profiling must not change the results
        plain = SweepRunner(jobs=1).run(small_grid, mode="monte-carlo")
        for a, b in zip(plain, outcome):
            np.testing.assert_array_equal(a.job_times, b.job_times)

    def test_run_vectorized_profiles_the_batch_passes(self, small_grid):
        outcome = SweepRunner(jobs=1).run(
            small_grid, mode="monte-carlo-max", profile=True
        )
        assert outcome.profile is not None
        assert "monte_carlo.py" in outcome.profile_report(top=30)

    def test_unprofiled_outcome_reports_no_profile(self, small_grid):
        outcome = SweepRunner(jobs=1).run(small_grid)
        assert outcome.profile is None
        assert "no profile collected" in outcome.profile_report()
