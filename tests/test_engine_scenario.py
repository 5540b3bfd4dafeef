"""Engine-layer tests for the scenario refactor: cache schema v2 and the
heterogeneous / policy grid families."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.cli import main
from repro.cluster import SimulationConfig, run_simulation
from repro.core import OwnerSpec, ScenarioSpec
from repro.engine import (
    CACHE_VERSION,
    GRID_NAMES,
    ResultCache,
    SweepRunner,
    build_grid,
    config_fingerprint,
    grid_mode,
)


def _v1_fingerprint(config: SimulationConfig, mode: str) -> str:
    """The schema-1 (PR 1) fingerprint: no scenario fields, version key."""
    payload = {
        "version": 1,
        "mode": str(mode),
        "workstations": int(config.workstations),
        "task_demand": float(config.task_demand),
        "owner_demand": float(config.owner.demand),
        "owner_utilization": (
            None if config.owner.utilization is None else float(config.owner.utilization)
        ),
        "request_probability": (
            None
            if config.owner.request_probability is None
            else float(config.owner.request_probability)
        ),
        "num_jobs": int(config.num_jobs),
        "num_batches": int(config.num_batches),
        "confidence": float(config.confidence),
        "seed": int(config.seed),
        "owner_demand_kind": str(config.owner_demand_kind),
        "owner_demand_kwargs": sorted(
            (str(k), float(v)) for k, v in config.owner_demand_kwargs.items()
        ),
        "imbalance": float(config.imbalance),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TestCacheSchemaV2:
    def test_schema_bumped(self):
        # Schema 3 added the job-arrival (open-system) fields; schema 4 the
        # admission subsystem (job classes, admission policy); schema 5
        # trace-driven owners and the backend-owned NPZ layouts; schema 6 the
        # canonical mode that aliases event-kernel entries to the oracles';
        # schema 7 the payload walked off the spec dataclasses; schema 8 the
        # entry's CRC-32 stamp.  Pinned exactly so a fingerprint-payload change must bump the schema.
        assert CACHE_VERSION == 8

    def test_schema_history_is_the_source_of_truth(self):
        from repro.engine import SCHEMA_HISTORY

        versions = [version for version, _ in SCHEMA_HISTORY]
        assert versions == list(range(1, len(versions) + 1))
        assert CACHE_VERSION == SCHEMA_HISTORY[-1][0]
        assert all(
            isinstance(description, str) and description
            for _, description in SCHEMA_HISTORY
        )

    def test_v1_entries_never_replay(self, tmp_path, paper_owner):
        """An NPZ written under the schema-1 key must be a miss, not a stale hit."""
        config = SimulationConfig(
            workstations=3, task_demand=40, owner=paper_owner, num_jobs=60,
            num_batches=4, seed=13,
        )
        assert _v1_fingerprint(config, "monte-carlo") != config_fingerprint(
            config, "monte-carlo"
        )
        cache = ResultCache(tmp_path)
        result = run_simulation(config, "monte-carlo")
        # Plant the entry where schema 1 would have put it (valid NPZ payload,
        # poisoned job times so a silent replay would be detectable).
        stale = tmp_path / f"{_v1_fingerprint(config, 'monte-carlo')}.npz"
        np.savez_compressed(
            stale,
            job_times=np.full_like(result.job_times, -1.0),
            task_times=np.full_like(result.task_times, -1.0),
            measured_owner_utilization=np.float64(np.nan),
        )
        assert cache.load(config, "monte-carlo") is None
        outcome = SweepRunner(jobs=1, cache=cache).run([config], mode="monte-carlo")
        assert outcome.simulated == 1 and outcome.cache_hits == 0
        assert (outcome[0].job_times >= 0).all()

    def test_fingerprint_covers_scenario_fields(self, paper_owner):
        base = ScenarioSpec.homogeneous(4, paper_owner)
        variants = [
            base.with_policy("self-scheduling"),
            base.with_policy("self-scheduling", {"chunks_per_station": 2}),
            base.with_policy("migrate-on-owner-arrival"),
            ScenarioSpec.from_utilizations([0.1, 0.1, 0.1, 0.2], owner_demand=10.0),
            ScenarioSpec.homogeneous(4, paper_owner, demand_kind="exponential"),
            ScenarioSpec.homogeneous(
                4, paper_owner, demand_kind="hyperexponential",
                demand_kwargs={"squared_cv": 4.0},
            ),
        ]
        keys = {
            config_fingerprint(
                SimulationConfig.from_scenario(s, task_demand=40, num_jobs=60, seed=13),
                "event-driven",
            )
            for s in [base, *variants]
        }
        assert len(keys) == len(variants) + 1

    def test_station_order_matters(self):
        a = ScenarioSpec.from_utilizations([0.0, 0.2], owner_demand=10.0)
        b = ScenarioSpec.from_utilizations([0.2, 0.0], owner_demand=10.0)
        fa, fb = (
            config_fingerprint(
                SimulationConfig.from_scenario(s, task_demand=40, num_jobs=60),
                "monte-carlo",
            )
            for s in (a, b)
        )
        assert fa != fb

    def test_scenario_roundtrip_through_cache(self, tmp_path):
        scenario = ScenarioSpec.from_utilizations([0.05, 0.2, 0.0], owner_demand=10.0)
        config = SimulationConfig.from_scenario(
            scenario, task_demand=50, num_jobs=60, num_batches=4, seed=7
        )
        runner = SweepRunner(jobs=1, cache=tmp_path)
        first = runner.run([config], mode="monte-carlo")
        second = runner.run([config], mode="monte-carlo")
        assert second.cache_hits == 1
        np.testing.assert_array_equal(first[0].job_times, second[0].job_times)


class TestScenarioGrids:
    def test_new_grids_registered(self):
        assert "hetero-concentration" in GRID_NAMES
        assert "policy-compare" in GRID_NAMES
        assert grid_mode("hetero-concentration") == "monte-carlo"
        assert grid_mode("policy-compare") == "event-driven"

    def test_concentration_grid_shape(self):
        grid = build_grid(
            "hetero-concentration",
            workstation_counts=(8,),
            utilizations=(0.1,),
            concentration_levels=(0.0, 1.0),
            num_jobs=100,
            num_batches=4,
        )
        assert len(grid) == 2
        homogeneous, skewed = grid
        assert homogeneous.scenario is not None
        assert homogeneous.scenario.is_homogeneous
        assert not skewed.scenario.is_homogeneous
        # Same cluster-average load in every point.
        assert skewed.nominal_owner_utilization == pytest.approx(0.1)
        assert skewed.scenario.max_utilization == pytest.approx(0.2)

    def test_policy_grid_shape(self):
        grid = build_grid(
            "policy-compare",
            workstation_counts=(4,),
            utilizations=(0.1,),
            policies=("static", "self-scheduling"),
            num_jobs=40,
            num_batches=4,
        )
        assert [c.scenario.policy for c in grid] == ["static", "self-scheduling"]

    def test_per_point_seeds_stable_and_distinct(self):
        kwargs = dict(workstation_counts=(8, 16), utilizations=(0.1,),
                      concentration_levels=(0.0, 0.5))
        a = build_grid("hetero-concentration", **kwargs)
        b = build_grid("hetero-concentration", **kwargs)
        assert [c.seed for c in a] == [c.seed for c in b]
        assert len({c.seed for c in a}) == len(a)

    def test_axes_guarded_per_family(self):
        with pytest.raises(ValueError, match="concentration"):
            build_grid("fig01", concentration_levels=(0.5,))
        with pytest.raises(ValueError, match="policy"):
            build_grid("hetero-concentration", policies=("static",))

    def test_concentration_sweep_runs_and_caches(self, tmp_path):
        grid = build_grid(
            "hetero-concentration",
            workstation_counts=(6,),
            utilizations=(0.1,),
            concentration_levels=(0.0, 1.0),
            num_jobs=100,
            num_batches=4,
        )
        runner = SweepRunner(jobs=2, cache=tmp_path)
        first = runner.run(grid, mode="monte-carlo")
        assert first.simulated == 2
        second = runner.run(grid, mode="monte-carlo")
        assert second.cache_hits == 2
        # Concentrating the load can only hurt the expected job time.
        assert second[1].mean_job_time > second[0].mean_job_time


class TestScenarioSweepCli:
    def test_hetero_concentration_sweep(self, capsys, tmp_path):
        args = [
            "sweep", "hetero-concentration",
            "--num-jobs", "80", "--workstations", "6", "--utilizations", "0.1",
            "--concentrations", "0,1", "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "2 points (2 simulated, 0 cached)" in out
        assert "U_max=0.200" in out
        assert main(args) == 0
        assert "2 points (0 simulated, 2 cached)" in capsys.readouterr().out

    def test_policy_compare_sweep(self, capsys):
        args = [
            "sweep", "policy-compare",
            "--num-jobs", "20", "--workstations", "4", "--utilizations", "0.1",
            "--policies", "static,self-scheduling", "--jobs", "1", "--no-cache",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "policy=self-scheduling" in out
        assert "mode=event-driven" in out

    def test_policies_flag_rejected_for_paper_grids(self, capsys):
        assert main(["sweep", "fig01", "--no-cache", "--policies", "static"]) == 2
        assert "policy axis" in capsys.readouterr().err

    def test_unknown_policy_rejected(self, capsys):
        args = [
            "sweep", "policy-compare", "--num-jobs", "20", "--workstations", "4",
            "--policies", "gang", "--no-cache", "--jobs", "1",
        ]
        assert main(args) == 2
        assert "unknown scheduling policy" in capsys.readouterr().err
