"""Tests for the workload package: owner traces, problems, validation grid."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import OwnerBehavior
from repro.core import OwnerSpec, TaskRounding
from repro.workload import (
    PAPER_MEASURED_UTILIZATION,
    PAPER_PROBLEM_MINUTES,
    PAPER_WORKSTATION_COUNTS,
    TRIVIAL_USAGE_MIX,
    ActivityType,
    LocalComputationProblem,
    MixedOwnerDemand,
    OwnerActivityTrace,
    ValidationGrid,
    generate_trace,
    measure_utilization,
    standard_problem_ladder,
    trivial_usage_behavior,
    uptime_survey,
)


class TestActivityMix:
    def test_default_mix_mean(self):
        mix = MixedOwnerDemand()
        expected = sum(a.mean_demand * a.weight for a in TRIVIAL_USAGE_MIX) / sum(
            a.weight for a in TRIVIAL_USAGE_MIX
        )
        assert mix.mean == pytest.approx(expected)

    def test_samples_positive(self, rng):
        mix = MixedOwnerDemand()
        samples = [mix.sample(rng) for _ in range(1000)]
        assert all(s >= 0 for s in samples)
        assert np.mean(samples) == pytest.approx(mix.mean, rel=0.2)

    def test_activity_validation(self):
        with pytest.raises(ValueError):
            ActivityType(name="bad", mean_demand=0.0, weight=1.0)
        with pytest.raises(ValueError):
            ActivityType(name="bad", mean_demand=1.0, weight=0.0)
        with pytest.raises(ValueError):
            MixedOwnerDemand(())


class TestTrivialUsageBehavior:
    def test_nominal_utilization_calibrated(self):
        behavior = trivial_usage_behavior(0.03)
        assert behavior.utilization == pytest.approx(0.03, rel=1e-6)

    def test_long_run_trace_utilization_matches(self, rng):
        behavior = trivial_usage_behavior(0.03)
        trace = generate_trace(behavior, horizon=2_000_000.0, rng=rng)
        assert trace.utilization == pytest.approx(0.03, abs=0.01)


class TestTraces:
    def test_idle_owner_has_empty_trace(self, rng):
        behavior = OwnerBehavior.from_spec(OwnerSpec(demand=10, utilization=0.0))
        trace = generate_trace(behavior, horizon=1000.0, rng=rng)
        assert trace.busy_intervals == ()
        assert trace.utilization == 0.0
        assert trace.num_bursts == 0

    def test_trace_utilization_matches_nominal(self, rng):
        behavior = OwnerBehavior.from_spec(OwnerSpec(demand=10, utilization=0.1))
        trace = generate_trace(behavior, horizon=500_000.0, rng=rng)
        assert measure_utilization(trace) == pytest.approx(0.1, abs=0.01)

    def test_intervals_ordered_and_within_horizon(self, rng):
        behavior = OwnerBehavior.from_spec(OwnerSpec(demand=10, utilization=0.2))
        trace = generate_trace(behavior, horizon=10_000.0, rng=rng)
        last_end = 0.0
        for start, end in trace.busy_intervals:
            assert start >= last_end
            assert end <= 10_000.0
            last_end = end

    def test_busy_at(self):
        trace = OwnerActivityTrace(horizon=100.0, busy_intervals=((10.0, 20.0), (50.0, 60.0)))
        assert trace.busy_at(15.0)
        assert not trace.busy_at(25.0)
        assert not trace.busy_at(95.0)
        assert trace.busy_time == pytest.approx(20.0)

    def test_invalid_traces_rejected(self):
        with pytest.raises(ValueError):
            OwnerActivityTrace(horizon=-1.0, busy_intervals=())
        with pytest.raises(ValueError):
            OwnerActivityTrace(horizon=10.0, busy_intervals=((5.0, 3.0),))
        with pytest.raises(ValueError):
            OwnerActivityTrace(horizon=10.0, busy_intervals=((0.0, 5.0), (4.0, 6.0)))

    def test_invalid_horizon(self, rng):
        behavior = OwnerBehavior.from_spec(OwnerSpec(demand=10, utilization=0.1))
        with pytest.raises(ValueError):
            generate_trace(behavior, horizon=-1.0, rng=rng)
        # A zero-length horizon is a valid (empty) measurement window.
        assert generate_trace(behavior, horizon=0.0, rng=rng).utilization == 0.0


class TestUptimeSurvey:
    def test_survey_statistics(self):
        behavior = OwnerBehavior.from_spec(OwnerSpec(demand=10, utilization=0.03))
        survey = uptime_survey(behavior, horizon=200_000.0, num_workstations=12, seed=1)
        assert survey["workstations"] == 12
        assert survey["mean"] == pytest.approx(0.03, abs=0.01)
        assert survey["min"] <= survey["mean"] <= survey["max"]

    def test_reproducible(self):
        behavior = OwnerBehavior.from_spec(OwnerSpec(demand=10, utilization=0.05))
        a = uptime_survey(behavior, 50_000.0, 4, seed=9)
        b = uptime_survey(behavior, 50_000.0, 4, seed=9)
        assert a == b

    def test_invalid_workstations(self):
        behavior = OwnerBehavior.from_spec(OwnerSpec(demand=10, utilization=0.05))
        with pytest.raises(ValueError):
            uptime_survey(behavior, 1000.0, 0)


class TestLocalComputationProblem:
    def test_unit_conversion(self):
        problem = LocalComputationProblem(minutes=4.0)
        assert problem.total_demand_seconds == pytest.approx(240.0)
        assert problem.total_demand_units == pytest.approx(240.0)
        assert problem.task_demand_units(12) == pytest.approx(20.0)
        assert problem.to_seconds(30.0) == pytest.approx(30.0)

    def test_custom_unit_scale(self):
        problem = LocalComputationProblem(minutes=1.0, seconds_per_unit=0.5)
        assert problem.total_demand_units == pytest.approx(120.0)

    def test_job_spec(self):
        problem = LocalComputationProblem(minutes=2.0)
        job = problem.job_spec(TaskRounding.ROUND)
        assert job.total_demand == pytest.approx(120.0)
        assert job.rounding is TaskRounding.ROUND

    def test_name(self):
        assert LocalComputationProblem(minutes=8.0).name == "demand-8min"
        assert LocalComputationProblem(minutes=1.5).name == "demand-1.5min"

    def test_validation(self):
        with pytest.raises(ValueError):
            LocalComputationProblem(minutes=0.0)
        with pytest.raises(ValueError):
            LocalComputationProblem(minutes=1.0, seconds_per_unit=0.0)
        with pytest.raises(ValueError):
            LocalComputationProblem(minutes=1.0).task_demand_units(0)

    def test_standard_ladder(self):
        ladder = standard_problem_ladder()
        assert [p.minutes for p in ladder] == list(PAPER_PROBLEM_MINUTES)
        assert len(ladder) == 5


class TestValidationGrid:
    def test_defaults_match_paper(self):
        grid = ValidationGrid()
        assert grid.owner_utilization == PAPER_MEASURED_UTILIZATION
        assert grid.replications == 10
        assert tuple(grid.workstation_counts) == PAPER_WORKSTATION_COUNTS
        assert grid.owner_spec.utilization == pytest.approx(0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            ValidationGrid(replications=0)
        with pytest.raises(ValueError):
            ValidationGrid(owner_utilization=1.0)
        with pytest.raises(ValueError):
            ValidationGrid(problem_minutes=())
        with pytest.raises(ValueError):
            ValidationGrid(workstation_counts=(0,))
