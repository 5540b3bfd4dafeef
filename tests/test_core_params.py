"""Tests for repro.core.params: notation, validation and U <-> P conversion."""

from __future__ import annotations

import math

import pytest

from repro.core.params import (
    JobSpec,
    ModelInputs,
    OwnerSpec,
    SystemSpec,
    TaskRounding,
    request_probability_to_utilization,
    split_job_demand,
    utilization_to_request_probability,
    validate_utilizations,
)


class TestUtilizationConversion:
    def test_round_trip_utilization(self):
        for u in (0.001, 0.01, 0.05, 0.1, 0.2, 0.5, 0.9):
            p = utilization_to_request_probability(u, 10.0)
            assert request_probability_to_utilization(p, 10.0) == pytest.approx(u)

    def test_paper_value_one_percent(self):
        # U = 0.01, O = 10  =>  P = 0.01 / (10 * 0.99)
        p = utilization_to_request_probability(0.01, 10.0)
        assert p == pytest.approx(0.01 / 9.9)

    def test_zero_utilization_gives_zero_probability(self):
        assert utilization_to_request_probability(0.0, 10.0) == 0.0

    def test_zero_probability_gives_zero_utilization(self):
        assert request_probability_to_utilization(0.0, 10.0) == 0.0

    def test_probability_capped_at_one(self):
        # Extremely high utilization with a tiny owner demand would need P > 1.
        assert utilization_to_request_probability(0.99, 0.5) == 1.0

    def test_utilization_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            utilization_to_request_probability(1.0, 10.0)
        with pytest.raises(ValueError):
            utilization_to_request_probability(-0.1, 10.0)

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            request_probability_to_utilization(1.5, 10.0)
        with pytest.raises(ValueError):
            request_probability_to_utilization(-0.5, 10.0)

    def test_non_positive_owner_demand_rejected(self):
        with pytest.raises(ValueError):
            utilization_to_request_probability(0.1, 0.0)
        with pytest.raises(ValueError):
            request_probability_to_utilization(0.1, -1.0)

    def test_higher_utilization_needs_higher_probability(self):
        p_low = utilization_to_request_probability(0.05, 10.0)
        p_high = utilization_to_request_probability(0.20, 10.0)
        assert p_high > p_low


class TestSplitJobDemand:
    def test_even_split(self):
        assert split_job_demand(1000.0, 10) == 100.0

    def test_round_default(self):
        # 1000 / 3 = 333.33 -> rounds to 333
        assert split_job_demand(1000.0, 3) == 333.0

    def test_floor_and_ceil(self):
        assert split_job_demand(1000.0, 3, TaskRounding.FLOOR) == 333.0
        assert split_job_demand(1000.0, 3, TaskRounding.CEIL) == 334.0

    def test_interpolate_returns_fraction(self):
        value = split_job_demand(1000.0, 3, TaskRounding.INTERPOLATE)
        assert value == pytest.approx(1000.0 / 3.0)

    def test_minimum_task_demand_is_one(self):
        # More workstations than work units: tasks still get demand 1.
        assert split_job_demand(5.0, 100) == 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            split_job_demand(0.0, 10)
        with pytest.raises(ValueError):
            split_job_demand(100.0, 0)

    def test_string_policy_accepted(self):
        assert split_job_demand(1000.0, 4, "ceil") == 250.0


class TestOwnerSpec:
    def test_from_utilization_derives_probability(self):
        owner = OwnerSpec(demand=10.0, utilization=0.1)
        assert owner.request_probability == pytest.approx(0.1 / 9.0)

    def test_from_probability_derives_utilization(self):
        owner = OwnerSpec(demand=10.0, request_probability=0.1 / 9.0)
        assert owner.utilization == pytest.approx(0.1)

    def test_exactly_one_of_u_or_p_required(self):
        with pytest.raises(ValueError):
            OwnerSpec(demand=10.0)
        with pytest.raises(ValueError):
            OwnerSpec(demand=10.0, utilization=0.1, request_probability=0.01)

    @pytest.mark.parametrize(
        "owner",
        [
            OwnerSpec(demand=10.0, utilization=0.1),
            OwnerSpec(demand=10.0, request_probability=0.0123456789),
            OwnerSpec(demand=0.5, utilization=0.9),  # P clamps to 1
        ],
    )
    def test_consistent_pair_rebuilds_the_stored_spec(self, owner):
        # Both stored floats, as a codec hands them back, are accepted as-is.
        rebuilt = OwnerSpec(
            demand=owner.demand,
            utilization=owner.utilization,
            request_probability=owner.request_probability,
        )
        assert rebuilt == owner

    def test_inconsistent_pair_rejected(self):
        # Eq. 8 gives P = 0.1 for U = 0.5, O = 10: sampling P = 0.001 while
        # reporting U = 0.5 would misdescribe the simulated owner.
        with pytest.raises(ValueError, match="disagree"):
            OwnerSpec(demand=10.0, utilization=0.5, request_probability=0.001)

    def test_idle_owner(self):
        owner = OwnerSpec.idle()
        assert owner.utilization == 0.0
        assert owner.request_probability == 0.0
        assert owner.mean_think_time == math.inf

    def test_mean_think_time(self):
        owner = OwnerSpec(demand=10.0, request_probability=0.02)
        assert owner.mean_think_time == pytest.approx(50.0)

    def test_with_utilization_copies(self):
        owner = OwnerSpec(demand=10.0, utilization=0.1)
        heavier = owner.with_utilization(0.2)
        assert heavier.demand == owner.demand
        assert heavier.utilization == pytest.approx(0.2)
        assert owner.utilization == pytest.approx(0.1)

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            OwnerSpec(demand=-5.0, utilization=0.1)

    def test_classmethod_constructors(self):
        a = OwnerSpec.from_utilization(0.05, demand=20.0)
        assert a.demand == 20.0 and a.utilization == pytest.approx(0.05)
        b = OwnerSpec.from_request_probability(0.01, demand=20.0)
        assert b.request_probability == pytest.approx(0.01)


class TestJobSpec:
    def test_task_demand_uses_rounding(self):
        job = JobSpec(total_demand=1000.0, rounding=TaskRounding.CEIL)
        assert job.task_demand(3) == 334.0

    def test_task_ratio(self):
        job = JobSpec(total_demand=1000.0)
        owner = OwnerSpec(demand=10.0, utilization=0.1)
        assert job.task_ratio(10, owner) == pytest.approx(10.0)

    def test_scaled(self):
        job = JobSpec(total_demand=100.0)
        assert job.scaled(5).total_demand == 500.0

    def test_invalid_demand(self):
        with pytest.raises(ValueError):
            JobSpec(total_demand=0.0)

    def test_rounding_accepts_string(self):
        job = JobSpec(total_demand=100.0, rounding="floor")
        assert job.rounding is TaskRounding.FLOOR


class TestSystemSpec:
    def test_with_size(self, paper_owner):
        system = SystemSpec(workstations=10, owner=paper_owner)
        bigger = system.with_size(50)
        assert bigger.workstations == 50
        assert bigger.owner is paper_owner

    def test_with_owner(self, paper_owner, light_owner):
        system = SystemSpec(workstations=10, owner=paper_owner)
        lighter = system.with_owner(light_owner)
        assert lighter.owner is light_owner
        assert lighter.workstations == 10

    def test_invalid_size(self, paper_owner):
        with pytest.raises(ValueError):
            SystemSpec(workstations=0, owner=paper_owner)

    def test_default_owner(self):
        system = SystemSpec(workstations=4)
        assert system.owner.utilization == pytest.approx(0.1)


class TestModelInputs:
    def test_from_specs(self, paper_job, paper_owner):
        system = SystemSpec(workstations=10, owner=paper_owner)
        inputs = ModelInputs.from_specs(paper_job, system)
        assert inputs.task_demand == pytest.approx(100.0)
        assert inputs.workstations == 10
        assert inputs.owner_demand == 10.0
        assert inputs.utilization == pytest.approx(0.1)

    def test_task_ratio_and_job_demand(self):
        inputs = ModelInputs(
            task_demand=100.0,
            workstations=10,
            owner_demand=10.0,
            request_probability=0.01,
        )
        assert inputs.task_ratio == pytest.approx(10.0)
        assert inputs.job_demand == pytest.approx(1000.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelInputs(task_demand=0, workstations=1, owner_demand=10, request_probability=0.1)
        with pytest.raises(ValueError):
            ModelInputs(task_demand=10, workstations=0, owner_demand=10, request_probability=0.1)
        with pytest.raises(ValueError):
            ModelInputs(task_demand=10, workstations=1, owner_demand=0, request_probability=0.1)
        with pytest.raises(ValueError):
            ModelInputs(task_demand=10, workstations=1, owner_demand=10, request_probability=1.5)


class TestValidateUtilizations:
    def test_accepts_valid(self):
        assert validate_utilizations([0.0, 0.5, 0.99]) == (0.0, 0.5, 0.99)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            validate_utilizations([0.1, 1.0])
