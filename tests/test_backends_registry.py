"""Tests for the backend registry seam introduced by the backends package.

These tests pin the two contracts every layer relies on: registry dispatch
reproduces direct backend
construction **bitwise** for every mode, and every registered backend's
result round-trips bitwise through :class:`~repro.engine.ResultCache`.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.backends.base as backends_base
from repro.backends import (
    DiscreteTimeSimulator,
    EventDrivenClusterSimulator,
    EventKernelBackend,
    MonteCarloMaxSampler,
    MonteCarloSampler,
    OpenSystemResult,
    OpenSystemSimulator,
    SimulationBackend,
    SimulationConfig,
    SimulationResult,
    backend_names,
    get_backend,
    register_backend,
    run_simulation,
)
from repro.core import JobArrivalSpec, OwnerSpec, ScenarioSpec
from repro.engine import ResultCache, SweepRunner
from repro.engine.cache import result_arrays

ALL_MODES = (
    "discrete-time",
    "monte-carlo",
    "monte-carlo-max",
    "event-driven",
    "open-system",
    "event-kernel",
)

EXPECTED_CLASSES = {
    "discrete-time": DiscreteTimeSimulator,
    "monte-carlo": MonteCarloSampler,
    "monte-carlo-max": MonteCarloMaxSampler,
    "event-driven": EventDrivenClusterSimulator,
    "open-system": OpenSystemSimulator,
    "event-kernel": EventKernelBackend,
}


def _config_for(mode: str, paper_owner: OwnerSpec) -> SimulationConfig:
    """A small config runnable on the given backend."""
    if mode == "open-system":
        scenario = ScenarioSpec.homogeneous(
            3, paper_owner, arrivals=JobArrivalSpec.poisson(rate=0.002)
        )
        return SimulationConfig.from_scenario(
            scenario, task_demand=30, num_jobs=40, num_batches=4, seed=11
        )
    return SimulationConfig(
        workstations=3, task_demand=30, owner=paper_owner, num_jobs=40,
        num_batches=4, seed=11,
    )


class TestRegistry:
    def test_all_built_in_backends_registered(self):
        assert set(backend_names()) == set(ALL_MODES)

    def test_get_backend_returns_registered_classes(self):
        for mode, cls in EXPECTED_CLASSES.items():
            assert get_backend(mode) is cls

    def test_name_and_mode_aliases_agree(self):
        for mode, cls in EXPECTED_CLASSES.items():
            assert cls.name == mode

    def test_unknown_mode_raises_with_known_names(self):
        with pytest.raises(ValueError, match="unknown simulation mode"):
            get_backend("csim")
        with pytest.raises(ValueError, match="monte-carlo"):
            get_backend("csim")

    def test_duplicate_registration_rejected(self):
        class Clash(MonteCarloSampler):
            name = "monte-carlo"

        with pytest.raises(ValueError, match="already registered"):
            register_backend(Clash)
        # the original stays in place
        assert get_backend("monte-carlo") is MonteCarloSampler

    def test_backend_without_name_rejected(self):
        class Nameless(SimulationBackend):
            def run(self):  # pragma: no cover - never executed
                return None

        with pytest.raises(ValueError, match="non-empty string 'name'"):
            register_backend(Nameless)

    def test_custom_backend_is_dispatchable_end_to_end(self, paper_owner):
        """Registering a backend makes it runnable through every layer."""

        class ConstantBackend(SimulationBackend):
            name = "test-constant"

            def run(self):
                job_times = np.full(self.config.num_jobs, 7.0)
                return SimulationResult(
                    config=self.config,
                    mode=self.name,
                    job_times=job_times,
                    task_times=job_times.copy(),
                )

        register_backend(ConstantBackend)
        try:
            config = _config_for("monte-carlo", paper_owner)
            assert run_simulation(config, "test-constant").mean_job_time == 7.0
            outcome = SweepRunner(jobs=1).run([config], mode="test-constant")
            assert outcome[0].mean_job_time == 7.0
        finally:
            backends_base._REGISTRY.pop("test-constant")

    def test_replace_allows_overriding(self):
        class Double(MonteCarloSampler):
            name = "monte-carlo"

        register_backend(Double, replace=True)
        try:
            assert get_backend("monte-carlo") is Double
        finally:
            register_backend(MonteCarloSampler, replace=True)
        assert get_backend("monte-carlo") is MonteCarloSampler


class TestCapabilities:
    def test_declared_capabilities(self, paper_owner):
        """What each backend can simulate is declared by what its run()
        accepts: the rest raises ``ValueError``."""
        from dataclasses import replace

        closed = _config_for("event-driven", paper_owner)
        fractional = replace(closed, task_demand=30.5)
        policy = SimulationConfig.from_scenario(
            ScenarioSpec.homogeneous(3, paper_owner, policy="self-scheduling"),
            task_demand=30, num_jobs=40, num_batches=4, seed=11,
        )
        for mode in ("monte-carlo", "monte-carlo-max"):
            with pytest.raises(ValueError, match="integral task_demand"):
                run_simulation(fractional, mode)
        for mode in ("discrete-time", "monte-carlo-max"):
            with pytest.raises(ValueError, match="self-scheduling"):
                run_simulation(policy, mode)
        with pytest.raises(ValueError, match="job-arrival process"):
            run_simulation(_config_for("open-system", paper_owner), "event-driven")
        with pytest.raises(ValueError, match="job-arrival process"):
            run_simulation(closed, "open-system")
        run_simulation(fractional, "event-driven")
        run_simulation(policy, "event-driven")


class TestRegistryDispatchBitwise:
    """Registry dispatch must reproduce direct backend construction bitwise."""

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_run_simulation_matches_direct_backend(self, mode, paper_owner):
        config = _config_for(mode, paper_owner)
        via_registry = run_simulation(config, mode)
        direct = EXPECTED_CLASSES[mode](config).run()
        if mode == "open-system":
            for attr in ("arrival_times", "start_times", "end_times", "demands"):
                np.testing.assert_array_equal(
                    getattr(via_registry, attr), getattr(direct, attr)
                )
        else:
            np.testing.assert_array_equal(via_registry.job_times, direct.job_times)
            np.testing.assert_array_equal(via_registry.task_times, direct.task_times)
        assert via_registry.mode == mode


class TestCacheRoundTrip:
    """Every backend's cached result must reproduce it bitwise."""

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_round_trip_is_bitwise(self, mode, tmp_path, paper_owner):
        config = _config_for(mode, paper_owner)
        result = run_simulation(config, mode)
        cache = ResultCache(tmp_path)
        cache.store(config, mode, result)
        loaded = cache.load(config, mode)
        assert loaded is not None
        assert type(loaded) is type(result)
        if isinstance(result, OpenSystemResult):
            for attr in (
                "arrival_times",
                "start_times",
                "end_times",
                "demands",
                "widths",
                "class_ids",
                "restarts",
            ):
                np.testing.assert_array_equal(
                    getattr(loaded, attr), getattr(result, attr)
                )
            assert loaded.mean_response_time == result.mean_response_time
        else:
            np.testing.assert_array_equal(loaded.job_times, result.job_times)
            np.testing.assert_array_equal(loaded.task_times, result.task_times)
            assert loaded.job_time_interval.half_width == pytest.approx(
                result.job_time_interval.half_width
            )
        if result.measured_owner_utilization is None:
            assert loaded.measured_owner_utilization is None
        else:
            assert loaded.measured_owner_utilization == pytest.approx(
                result.measured_owner_utilization
            )

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_serialize_hooks_produce_plain_float_arrays(self, mode, paper_owner):
        """A cache entry holds only numeric arrays (NPZ without pickling)."""
        config = _config_for(mode, paper_owner)
        arrays = result_arrays(run_simulation(config, mode))
        assert "measured_owner_utilization" in arrays
        for value in arrays.values():
            assert np.asarray(value).dtype == np.float64

    def test_wrong_job_count_is_a_miss(self, tmp_path, paper_owner):
        """An entry whose sample count contradicts the config is a miss."""
        from dataclasses import replace

        config = _config_for("monte-carlo", paper_owner)
        result = run_simulation(config, "monte-carlo")
        cache = ResultCache(tmp_path)
        path = cache.store(config, "monte-carlo", result)
        shrunk = replace(config, num_jobs=config.num_jobs - 1)
        # Force the shrunk config onto the same digest to simulate staleness.
        path.rename(cache.path_for(shrunk, "monte-carlo"))
        assert cache.load(shrunk, "monte-carlo") is None


class TestShimCompatibility:
    """The ``repro.cluster`` import surface resolves to the backends' objects."""

    def test_cluster_package_lazy_exports(self):
        import repro.cluster as cluster

        assert cluster.EventDrivenClusterSimulator is EventDrivenClusterSimulator
        assert cluster.OpenSystemResult is OpenSystemResult
        assert cluster.run_simulation is run_simulation
        assert "SimulationConfig" in dir(cluster)
        with pytest.raises(AttributeError):
            cluster.NoSuchSimulator

    def test_backends_import_order_is_irrelevant(self):
        """Importing backends before repro.cluster must not deadlock/fail."""
        self._assert_subprocess_ok(
            "import repro.backends, repro.cluster; "
            "from repro.cluster import MonteCarloSampler; "
            "print('ok')"
        )

    @staticmethod
    def _assert_subprocess_ok(code: str) -> None:
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"
