"""Tests for the pluggable scheduling policies of the event-driven backend."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    POLICY_NAMES,
    MigrateOnOwnerArrival,
    SelfScheduling,
    SimulationConfig,
    StaticPartition,
    make_policy,
    run_simulation,
)
from repro.core import OwnerSpec, ScenarioSpec


def _policy_config(scenario: ScenarioSpec, task_demand=100.0, num_jobs=40, seed=5):
    return SimulationConfig.from_scenario(
        scenario, task_demand=task_demand, num_jobs=num_jobs, num_batches=4, seed=seed
    )


class TestPolicyRegistry:
    def test_known_names(self):
        assert POLICY_NAMES == (
            "static", "self-scheduling", "migrate-on-owner-arrival"
        )
        assert isinstance(make_policy("static"), StaticPartition)
        assert isinstance(make_policy("migrate-on-owner-arrival"), MigrateOnOwnerArrival)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            make_policy("round-robin")

    def test_kwargs_coercion(self):
        # ScenarioSpec canonicalises kwargs to floats; make_policy restores ints.
        policy = make_policy("self-scheduling", chunks_per_station=8.0)
        assert isinstance(policy, SelfScheduling)
        assert policy.chunks_per_station == 8

    def test_invalid_chunks(self):
        with pytest.raises(ValueError):
            SelfScheduling(chunks_per_station=0)


class TestPoliciesOnDedicatedCluster:
    """With idle owners every policy must finish in exactly T per job."""

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_job_time_equals_task_demand(self, idle_owner, policy):
        scenario = ScenarioSpec.homogeneous(4, idle_owner, policy=policy)
        result = run_simulation(
            _policy_config(scenario, task_demand=50.0, num_jobs=8), "event-driven"
        )
        np.testing.assert_allclose(result.job_times, 50.0)


class TestSelfScheduling:
    def test_reduces_mean_job_time_under_interference(self, paper_owner):
        base = ScenarioSpec.homogeneous(8, paper_owner)
        static = run_simulation(
            _policy_config(base, num_jobs=150, seed=21), "event-driven"
        )
        dynamic = run_simulation(
            _policy_config(
                base.with_policy("self-scheduling", {"chunks_per_station": 8}),
                num_jobs=150,
                seed=21,
            ),
            "event-driven",
        )
        # The shared queue shifts work away from interfered stations; with the
        # same owner streams the makespan must improve on average.
        assert dynamic.mean_job_time < static.mean_job_time

    def test_conserves_total_demand(self, paper_owner):
        scenario = ScenarioSpec.homogeneous(
            3, paper_owner, policy="self-scheduling",
            policy_kwargs={"chunks_per_station": 5},
        )
        result = run_simulation(
            _policy_config(scenario, task_demand=60.0, num_jobs=10), "event-driven"
        )
        # Aggregated per-station results: one entry per station and job.
        assert result.task_times.size == 3 * 10
        # A job's wall-clock is at least the critical path of a fair share.
        assert (result.job_times >= 60.0).all()


class TestMigrateOnOwnerArrival:
    def test_migrates_away_from_the_hot_station(self):
        # One hammered owner, the rest idle: migration should beat static by a
        # wide margin because the preempted task's remainder moves to an idle
        # machine instead of waiting behind the owner.
        utilizations = [0.6] + [0.0] * 5
        base = ScenarioSpec.from_utilizations(utilizations, owner_demand=50.0)
        static = run_simulation(
            _policy_config(base, task_demand=200.0, num_jobs=60, seed=3),
            "event-driven",
        )
        migrating = run_simulation(
            _policy_config(
                base.with_policy("migrate-on-owner-arrival"),
                task_demand=200.0,
                num_jobs=60,
                seed=3,
            ),
            "event-driven",
        )
        assert migrating.mean_job_time < static.mean_job_time
        # An owner burst costs ~50 units on the stuck task under static
        # scheduling; migration should recover most of that.
        assert migrating.mean_job_time < 0.9 * static.mean_job_time

    def test_no_idle_station_degrades_to_static(self, paper_owner):
        # W=1: there is never anywhere to migrate, so the policy must match
        # the static policy exactly (same streams, same preemption handling).
        base = ScenarioSpec.homogeneous(1, paper_owner)
        static = run_simulation(
            _policy_config(base, task_demand=80.0, num_jobs=50, seed=9),
            "event-driven",
        )
        migrating = run_simulation(
            _policy_config(
                base.with_policy("migrate-on-owner-arrival"),
                task_demand=80.0,
                num_jobs=50,
                seed=9,
            ),
            "event-driven",
        )
        np.testing.assert_array_equal(static.job_times, migrating.job_times)


class TestDiscreteBackendsRejectPolicies:
    @pytest.mark.parametrize("mode", ["monte-carlo", "discrete-time"])
    @pytest.mark.parametrize("policy", ["self-scheduling", "migrate-on-owner-arrival"])
    def test_non_static_policy_raises(self, paper_owner, mode, policy):
        scenario = ScenarioSpec.homogeneous(4, paper_owner, policy=policy)
        config = _policy_config(scenario)
        with pytest.raises(ValueError, match="static"):
            run_simulation(config, mode)

    def test_unknown_policy_fails_in_event_driven(self, paper_owner):
        scenario = ScenarioSpec.homogeneous(2, paper_owner, policy="mystery")
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            run_simulation(_policy_config(scenario, num_jobs=4), "event-driven")
