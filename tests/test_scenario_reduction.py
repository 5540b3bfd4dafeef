"""Reduction property: a ScenarioSpec of W identical stations is the paper's model.

These tests pin the contract the ScenarioSpec refactor must preserve: routing
every backend through the generalized per-station path may not change a single
bit of the homogeneous results, must stay within the established tolerances of
the analytical model, and must agree with the heterogeneous product-CDF closed
forms where those apply.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    POLICY_NAMES,
    SimulationConfig,
    run_simulation,
)
from repro.core import (
    HeterogeneousSystem,
    JobArrivalSpec,
    OwnerSpec,
    ScenarioSpec,
    evaluate,
    expected_job_time_heterogeneous,
    JobSpec,
    SystemSpec,
)
from repro.engine import config_fingerprint

MODES = ("monte-carlo", "discrete-time", "event-driven")


def _pair(paper_owner, workstations=6, task_demand=50.0, num_jobs=100, seed=17,
          **kwargs):
    """A legacy homogeneous config and its explicit-scenario equivalent."""
    legacy = SimulationConfig(
        workstations=workstations,
        task_demand=task_demand,
        owner=paper_owner,
        num_jobs=num_jobs,
        num_batches=4,
        seed=seed,
        **kwargs,
    )
    scenario = ScenarioSpec.homogeneous(
        workstations,
        paper_owner,
        demand_kind=kwargs.get("owner_demand_kind", "deterministic"),
        demand_kwargs=kwargs.get("owner_demand_kwargs"),
        imbalance=kwargs.get("imbalance", 0.0),
    )
    via_scenario = SimulationConfig.from_scenario(
        scenario, task_demand=task_demand, num_jobs=num_jobs, num_batches=4, seed=seed
    )
    return legacy, via_scenario


class TestBitwiseReduction:
    @pytest.mark.parametrize("mode", MODES)
    def test_identical_stations_reproduce_homogeneous_bitwise(self, paper_owner, mode):
        legacy, via_scenario = _pair(paper_owner)
        a = run_simulation(legacy, mode)
        b = run_simulation(via_scenario, mode)
        np.testing.assert_array_equal(a.job_times, b.job_times)
        np.testing.assert_array_equal(a.task_times, b.task_times)
        assert a.weighted_efficiency() == b.weighted_efficiency()
        assert a.config.nominal_owner_utilization == b.config.nominal_owner_utilization

    def test_event_driven_with_variance_and_imbalance(self, paper_owner):
        legacy, via_scenario = _pair(
            paper_owner,
            owner_demand_kind="exponential",
            imbalance=0.2,
            num_jobs=40,
        )
        a = run_simulation(legacy, "event-driven")
        b = run_simulation(via_scenario, "event-driven")
        np.testing.assert_array_equal(a.job_times, b.job_times)
        np.testing.assert_array_equal(a.task_times, b.task_times)

    def test_equivalent_configs_share_a_cache_fingerprint(self, paper_owner):
        legacy, via_scenario = _pair(paper_owner)
        for mode in MODES:
            assert config_fingerprint(legacy, mode) == config_fingerprint(
                via_scenario, mode
            )

    def test_effective_scenario_of_legacy_config_is_homogeneous(self, paper_owner):
        legacy, via_scenario = _pair(paper_owner)
        assert legacy.scenario is None
        assert legacy.effective_scenario == via_scenario.scenario
        assert legacy.effective_scenario.is_homogeneous


class TestAnalyticalAgreement:
    def test_homogeneous_scenario_matches_closed_form(self, paper_owner):
        scenario = ScenarioSpec.homogeneous(10, paper_owner)
        config = SimulationConfig.from_scenario(
            scenario, task_demand=100.0, num_jobs=4000, seed=23
        )
        result = run_simulation(config, "monte-carlo")
        analytic = evaluate(
            JobSpec(total_demand=1000.0), SystemSpec(workstations=10, owner=paper_owner)
        )
        assert result.mean_job_time == pytest.approx(
            analytic.expected_job_time, rel=0.03
        )
        assert result.mean_task_time == pytest.approx(
            analytic.expected_task_time, rel=0.03
        )

    @pytest.mark.parametrize("mode,num_jobs,rel", [
        ("monte-carlo", 20_000, 0.01),
        ("discrete-time", 2000, 0.03),
    ])
    def test_heterogeneous_scenario_matches_product_cdf(self, mode, num_jobs, rel):
        """Non-identically distributed task times vs the product-CDF closed form."""
        scenario = ScenarioSpec.from_utilizations(
            [0.3, 0.15, 0.05, 0.0], owner_demand=10.0
        )
        config = SimulationConfig.from_scenario(
            scenario, task_demand=100.0, num_jobs=num_jobs, num_batches=10, seed=29
        )
        result = run_simulation(config, mode)
        analytic = expected_job_time_heterogeneous(
            100, HeterogeneousSystem.from_scenario(scenario)
        )
        assert result.mean_job_time == pytest.approx(analytic, rel=rel)

    def test_run_batch_supports_heterogeneous_stations(self):
        scenarios = [
            ScenarioSpec.from_utilizations([0.2, 0.1, 0.0], owner_demand=10.0),
            ScenarioSpec.from_utilizations([0.1, 0.1, 0.1], owner_demand=10.0),
        ]
        configs = [
            SimulationConfig.from_scenario(
                s, task_demand=100.0, num_jobs=4000, num_batches=4, seed=31
            )
            for s in scenarios
        ]
        for config in configs:
            result = run_simulation(config, "monte-carlo-max")
            analytic = expected_job_time_heterogeneous(
                100, HeterogeneousSystem.from_scenario(config.scenario)
            )
            assert result.mean_job_time == pytest.approx(analytic, rel=0.03)


class TestOpenSystemReduction:
    """An open system whose queue never holds two jobs is the closed system.

    The open-system backend builds its owner and placement streams in the
    closed backend's exact order, so a job stream that degenerates to
    back-to-back service must reproduce the closed event-driven results
    bitwise — the contract that pins the admission layer as a pure extension.
    """

    def _closed(self, paper_owner, policy, num_jobs=30, seed=17):
        scenario = ScenarioSpec.homogeneous(5, paper_owner, policy=policy)
        return SimulationConfig.from_scenario(
            scenario, task_demand=40.0, num_jobs=num_jobs, num_batches=4, seed=seed
        )

    def _open(self, paper_owner, policy, num_jobs=30, seed=17):
        scenario = ScenarioSpec.homogeneous(
            5,
            paper_owner,
            policy=policy,
            # All jobs arrive at time 0 and the FCFS admission queue serves
            # them one at a time: service order and timing match the closed
            # back-to-back driver exactly.
            arrivals=JobArrivalSpec.from_trace((0.0,), warmup_fraction=0.0),
        )
        return SimulationConfig.from_scenario(
            scenario, task_demand=40.0, num_jobs=num_jobs, num_batches=4, seed=seed
        )

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_burst_stream_reproduces_closed_job_times_bitwise(
        self, paper_owner, policy
    ):
        closed = run_simulation(self._closed(paper_owner, policy), "event-driven")
        opened = run_simulation(self._open(paper_owner, policy), "open-system")
        np.testing.assert_array_equal(closed.job_times, opened.service_times)
        # Back-to-back service: each job starts the instant the previous ends.
        np.testing.assert_array_equal(
            opened.start_times[1:], opened.end_times[:-1]
        )
        assert opened.measured_owner_utilization == pytest.approx(
            closed.measured_owner_utilization
        )

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_single_arrival_empty_queue_matches_first_closed_job(
        self, paper_owner, policy
    ):
        closed = run_simulation(self._closed(paper_owner, policy), "event-driven")
        single = run_simulation(
            self._open(paper_owner, policy, num_jobs=1), "open-system"
        )
        assert single.num_jobs == 1
        assert single.wait_times[0] == 0.0
        assert single.arrival_times[0] == 0.0
        # One arrival into an empty queue == the closed system's first job.
        assert single.service_times[0] == closed.job_times[0]
        assert single.response_times[0] == closed.job_times[0]

    def test_open_scenario_never_shares_a_closed_fingerprint(self, paper_owner):
        closed = self._closed(paper_owner, "static")
        opened = self._open(paper_owner, "static")
        assert config_fingerprint(closed, "event-driven") != config_fingerprint(
            opened, "open-system"
        )


class TestConfigScenarioValidation:
    def test_workstation_mismatch_rejected(self, paper_owner):
        scenario = ScenarioSpec.homogeneous(4, paper_owner)
        with pytest.raises(ValueError, match="stations"):
            SimulationConfig(
                workstations=5, task_demand=10.0, owner=paper_owner,
                num_jobs=10, num_batches=2, scenario=scenario,
            )

    def test_conflicting_imbalance_rejected(self, paper_owner):
        scenario = ScenarioSpec.homogeneous(4, paper_owner, imbalance=0.2)
        with pytest.raises(ValueError, match="imbalance"):
            SimulationConfig(
                workstations=4, task_demand=10.0, owner=paper_owner,
                num_jobs=10, num_batches=2, imbalance=0.1, scenario=scenario,
            )

    def test_scenario_imbalance_is_adopted(self, paper_owner):
        scenario = ScenarioSpec.homogeneous(4, paper_owner, imbalance=0.2)
        config = SimulationConfig.from_scenario(scenario, task_demand=10.0, num_jobs=10, num_batches=2)
        assert config.imbalance == 0.2

    def test_model_inputs_requires_homogeneity(self, paper_owner):
        hetero = ScenarioSpec.from_utilizations([0.1, 0.2], owner_demand=10.0)
        config = SimulationConfig.from_scenario(hetero, task_demand=10.0, num_jobs=10, num_batches=2)
        with pytest.raises(ValueError, match="homogeneous"):
            config.model_inputs
        homo = SimulationConfig.from_scenario(
            ScenarioSpec.homogeneous(2, paper_owner), task_demand=10.0, num_jobs=10,
            num_batches=2,
        )
        assert homo.model_inputs.workstations == 2

    def test_heterogeneous_nominal_utilization_is_the_mean(self):
        scenario = ScenarioSpec.from_utilizations([0.0, 0.2], owner_demand=10.0)
        config = SimulationConfig.from_scenario(scenario, task_demand=10.0, num_jobs=10, num_batches=2)
        assert config.nominal_owner_utilization == pytest.approx(0.1)
