"""Tests for the three cluster-simulation back-ends and their agreement."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cluster import (
    DiscreteTimeSimulator,
    EventDrivenClusterSimulator,
    MonteCarloSampler,
    SimulationConfig,
    run_simulation,
    simulate_task_discrete,
)
from repro.core import (
    OwnerSpec,
    evaluate_inputs,
    expected_job_time,
    expected_task_time,
)
from repro.engine import SweepRunner, build_grid


@pytest.fixture
def base_config(paper_owner) -> SimulationConfig:
    return SimulationConfig(
        workstations=10,
        task_demand=100.0,
        owner=paper_owner,
        num_jobs=2000,
        seed=42,
    )


class TestSimulationConfig:
    def test_job_demand(self, base_config):
        assert base_config.job_demand == pytest.approx(1000.0)

    def test_model_inputs(self, base_config):
        inputs = base_config.model_inputs
        assert inputs.task_demand == 100.0
        assert inputs.workstations == 10
        assert inputs.utilization == pytest.approx(0.1)

    def test_validation(self, paper_owner):
        with pytest.raises(ValueError):
            SimulationConfig(workstations=0, task_demand=10, owner=paper_owner)
        with pytest.raises(ValueError):
            SimulationConfig(workstations=1, task_demand=0, owner=paper_owner)
        with pytest.raises(ValueError):
            SimulationConfig(workstations=1, task_demand=10, owner=paper_owner, num_jobs=0)
        with pytest.raises(ValueError):
            SimulationConfig(
                workstations=1, task_demand=10, owner=paper_owner, num_jobs=10, num_batches=20
            )
        with pytest.raises(ValueError):
            SimulationConfig(
                workstations=1, task_demand=10, owner=paper_owner, imbalance=1.5
            )


class TestSimulateTaskDiscrete:
    def test_no_interference(self, rng):
        time, interruptions = simulate_task_discrete(100, 10.0, 0.0, rng)
        assert time == 100.0
        assert interruptions == 0

    def test_always_interrupted(self, rng):
        time, interruptions = simulate_task_discrete(10, 5.0, 1.0, rng)
        assert interruptions == 10
        assert time == pytest.approx(10 + 10 * 5.0)

    def test_time_formula(self, rng):
        time, interruptions = simulate_task_discrete(50, 7.0, 0.2, rng)
        assert time == pytest.approx(50 + interruptions * 7.0)

    def test_mean_matches_analysis(self, rng):
        samples = [simulate_task_discrete(100, 10.0, 0.05, rng)[0] for _ in range(3000)]
        assert np.mean(samples) == pytest.approx(
            expected_task_time(100, 10.0, 0.05), rel=0.02
        )

    def test_invalid_demand(self, rng):
        with pytest.raises(ValueError):
            simulate_task_discrete(0, 10.0, 0.1, rng)
        with pytest.raises(ValueError):
            simulate_task_discrete(10.5, 10.0, 0.1, rng)


class TestMonteCarloSampler:
    def test_matches_analysis(self, base_config):
        result = run_simulation(base_config, "monte-carlo")
        analytic = evaluate_inputs(base_config.model_inputs)
        ej, et = analytic.expected_job_time, analytic.expected_task_time
        assert abs(result.mean_job_time - ej) / ej < 0.01
        assert abs(result.mean_task_time - et) / et < 0.01

    def test_reproducible_with_seed(self, base_config):
        a = MonteCarloSampler(base_config).run()
        b = MonteCarloSampler(base_config).run()
        np.testing.assert_allclose(a.job_times, b.job_times)

    def test_different_seeds_differ(self, paper_owner):
        cfg1 = SimulationConfig(workstations=5, task_demand=50, owner=paper_owner, num_jobs=200, seed=1)
        cfg2 = SimulationConfig(workstations=5, task_demand=50, owner=paper_owner, num_jobs=200, seed=2)
        a = MonteCarloSampler(cfg1).run()
        b = MonteCarloSampler(cfg2).run()
        assert not np.allclose(a.job_times, b.job_times)

    def test_result_properties(self, base_config):
        result = MonteCarloSampler(base_config).run()
        assert result.num_jobs == base_config.num_jobs
        assert result.mean_job_time >= result.mean_task_time
        assert result.speedup() == pytest.approx(
            base_config.job_demand / result.mean_job_time
        )
        assert 0 < result.weighted_efficiency() <= 1.0
        assert "monte-carlo" in result.summary()

    def test_job_times_bounded(self, base_config):
        result = MonteCarloSampler(base_config).run()
        t, o = base_config.task_demand, base_config.owner.demand
        assert np.all(result.job_times >= t)
        assert np.all(result.job_times <= t + t * o)

    def test_ci_meets_paper_precision(self, paper_owner):
        # With the paper's 20 x 1000 setup the 90% CI half-width is <= 1%.
        config = SimulationConfig(
            workstations=10, task_demand=100, owner=paper_owner, num_jobs=20_000, seed=0
        )
        result = MonteCarloSampler(config).run()
        assert result.job_time_interval.relative_half_width <= 0.01


class TestDiscreteTimeSimulator:
    def test_matches_analysis(self, paper_owner):
        config = SimulationConfig(
            workstations=5, task_demand=50, owner=paper_owner, num_jobs=400, seed=3
        )
        result = run_simulation(config, "discrete-time")
        ej = evaluate_inputs(config.model_inputs).expected_job_time
        assert abs(result.mean_job_time - ej) / ej < 0.05

    def test_agrees_with_monte_carlo(self, paper_owner):
        config = SimulationConfig(
            workstations=5, task_demand=50, owner=paper_owner, num_jobs=500, seed=4
        )
        dt = DiscreteTimeSimulator(config).run()
        mc = MonteCarloSampler(config).run()
        assert dt.mean_job_time == pytest.approx(mc.mean_job_time, rel=0.05)


class TestEventDrivenSimulator:
    def test_close_to_analysis_but_pessimistic_or_equal(self, paper_owner):
        config = SimulationConfig(
            workstations=8, task_demand=100, owner=paper_owner, num_jobs=300, seed=5
        )
        result = EventDrivenClusterSimulator(config).run()
        analytic = expected_job_time(100, 8, 10.0, paper_owner.request_probability)
        # Event-driven relaxes the optimistic assumptions, so it should be in
        # the same ballpark but not significantly below the analytic value.
        assert result.mean_job_time == pytest.approx(analytic, rel=0.10)
        assert result.mean_job_time >= 100.0

    def test_measured_utilization_reported(self, paper_owner):
        config = SimulationConfig(
            workstations=4, task_demand=100, owner=paper_owner, num_jobs=200, seed=6
        )
        result = EventDrivenClusterSimulator(config).run()
        assert result.measured_owner_utilization is not None
        assert result.measured_owner_utilization == pytest.approx(0.1, abs=0.05)

    def test_idle_owner_gives_ideal_times(self, idle_owner):
        config = SimulationConfig(
            workstations=4, task_demand=100, owner=idle_owner, num_jobs=50, seed=7
        )
        result = EventDrivenClusterSimulator(config).run()
        assert result.mean_job_time == pytest.approx(100.0)
        assert result.mean_task_time == pytest.approx(100.0)

    def test_imbalance_increases_job_time(self, idle_owner):
        balanced = SimulationConfig(
            workstations=8, task_demand=100, owner=idle_owner, num_jobs=100, seed=8,
            imbalance=0.0,
        )
        skewed = SimulationConfig(
            workstations=8, task_demand=100, owner=idle_owner, num_jobs=100, seed=8,
            imbalance=0.4,
        )
        t_balanced = EventDrivenClusterSimulator(balanced).run().mean_job_time
        t_skewed = EventDrivenClusterSimulator(skewed).run().mean_job_time
        assert t_skewed > t_balanced

    def test_owner_variance_hurts(self, paper_owner):
        base = SimulationConfig(
            workstations=10, task_demand=100, owner=paper_owner, num_jobs=300, seed=9,
            owner_demand_kind="deterministic",
        )
        noisy = SimulationConfig(
            workstations=10, task_demand=100, owner=paper_owner, num_jobs=300, seed=9,
            owner_demand_kind="hyperexponential",
            owner_demand_kwargs={"squared_cv": 9.0},
        )
        t_base = EventDrivenClusterSimulator(base).run().mean_job_time
        t_noisy = EventDrivenClusterSimulator(noisy).run().mean_job_time
        assert t_noisy > t_base


class TestResultCorrectnessRegressions:
    """Regression tests for the OwnerSpec / result-summary correctness fixes."""

    def _probability_config(self, **kwargs) -> SimulationConfig:
        owner = OwnerSpec.from_request_probability(0.002, demand=10.0)
        defaults = dict(
            workstations=4, task_demand=100, owner=owner, num_jobs=120,
            num_batches=4, seed=21,
        )
        defaults.update(kwargs)
        return SimulationConfig(**defaults)

    def test_summary_with_probability_specified_owner(self):
        """summary() must derive U via Eq. 8, never crash or print a blank."""
        result = run_simulation(self._probability_config(), "monte-carlo")
        text = result.summary()
        # P=0.002, O=10 => U = 10 / (10 + 500) ≈ 0.0196 (Eq. 8).
        assert "U=0.020" in text

    def test_weighted_efficiency_with_probability_specified_owner(self):
        """A probability-specified owner is not treated as U=0."""
        result = run_simulation(self._probability_config(), "monte-carlo")
        u = 10.0 / (10.0 + 1.0 / 0.002)
        expected = result.config.job_demand / (
            (1.0 - u) * result.mean_job_time * result.config.workstations
        )
        assert result.weighted_efficiency() == pytest.approx(expected)
        # The wrong U=0 value would be smaller by the factor (1 - u).
        wrong = expected * (1.0 - u)
        assert result.weighted_efficiency() != pytest.approx(wrong)

    def test_weighted_efficiency_prefers_measured_utilization(self, paper_owner):
        """When the event-driven backend measures U, that value is used."""
        config = SimulationConfig(
            workstations=4, task_demand=100, owner=paper_owner, num_jobs=100,
            num_batches=4, seed=22,
        )
        base = run_simulation(config, "event-driven")
        assert base.measured_owner_utilization is not None
        from dataclasses import replace

        measured = 0.30  # deliberately far from the nominal 0.10
        doctored = replace(base, measured_owner_utilization=measured)
        expected = config.job_demand / (
            (1.0 - measured) * doctored.mean_job_time * config.workstations
        )
        assert doctored.weighted_efficiency() == pytest.approx(expected)

    def test_nominal_utilization_accessor(self, paper_owner):
        config = SimulationConfig(
            workstations=2, task_demand=10, owner=paper_owner, num_jobs=20,
            num_batches=2,
        )
        assert config.nominal_owner_utilization == pytest.approx(0.10)
        prob_config = self._probability_config()
        assert prob_config.nominal_owner_utilization == pytest.approx(
            10.0 / (10.0 + 1.0 / 0.002)
        )


class TestFractionalTaskDemandRejected:
    """The discrete backends must refuse (not silently round) fractional T."""

    @pytest.mark.parametrize("mode", ["monte-carlo", "discrete-time"])
    @pytest.mark.parametrize("task_demand", [0.4, 10.5, 99.9])
    def test_discrete_backends_raise(self, paper_owner, mode, task_demand):
        config = SimulationConfig(
            workstations=2, task_demand=task_demand, owner=paper_owner,
            num_jobs=40, num_batches=4,
        )
        with pytest.raises(ValueError, match="integral task_demand"):
            run_simulation(config, mode)  # type: ignore[arg-type]

    def test_sample_interruptions_raises_too(self, paper_owner):
        config = SimulationConfig(
            workstations=2, task_demand=0.4, owner=paper_owner,
            num_jobs=40, num_batches=4,
        )
        with pytest.raises(ValueError, match="integral task_demand"):
            MonteCarloSampler(config).sample_interruptions()

    def test_event_driven_still_accepts_fractional(self, paper_owner):
        config = SimulationConfig(
            workstations=2, task_demand=10.5, owner=paper_owner,
            num_jobs=30, num_batches=3, seed=23,
        )
        result = run_simulation(config, "event-driven")
        assert result.mean_job_time >= 10.5

    def test_integral_float_demand_still_accepted(self, paper_owner):
        config = SimulationConfig(
            workstations=2, task_demand=50.0, owner=paper_owner,
            num_jobs=40, num_batches=4,
        )
        assert run_simulation(config, "monte-carlo").num_jobs == 40


class TestMonteCarloBatch:
    """``monte-carlo-max``: each job's time drawn from its exact maximum."""

    def test_matches_per_config_statistics(self, paper_owner, light_owner):
        configs = [
            SimulationConfig(
                workstations=10, task_demand=100, owner=owner, num_jobs=4000,
                seed=31,
            )
            for owner in (light_owner, paper_owner)
        ]
        for config in configs:
            result = run_simulation(config, "monte-carlo-max")
            exact = MonteCarloSampler(config).run()
            assert result.mean_job_time == pytest.approx(exact.mean_job_time, rel=0.02)
            assert result.mode == "monte-carlo-max"
            assert result.num_jobs == config.num_jobs

    def test_reproducible(self, paper_owner):
        config = SimulationConfig(
            workstations=5, task_demand=50, owner=paper_owner, num_jobs=200, seed=33
        )
        a = run_simulation(config, "monte-carlo-max")
        b = run_simulation(config, "monte-carlo-max")
        np.testing.assert_array_equal(a.job_times, b.job_times)
        np.testing.assert_array_equal(a.task_times, b.task_times)

    def test_points_do_not_depend_on_their_sweep(self, paper_owner, light_owner):
        # each point draws from its own config's seed, whatever shares its
        # sweep (the group route it replaced shared one stream per group)
        configs = [
            SimulationConfig(
                workstations=w, task_demand=50, owner=owner, num_jobs=100, seed=w
            )
            for w, owner in ((5, paper_owner), (5, light_owner), (6, paper_owner))
        ]
        together = SweepRunner(jobs=1).run(configs, mode="monte-carlo-max")
        for config, result in zip(configs, together):
            alone = run_simulation(config, "monte-carlo-max")
            np.testing.assert_array_equal(result.job_times, alone.job_times)
            np.testing.assert_array_equal(result.task_times, alone.task_times)

    def test_each_point_is_the_old_one_config_group_draw(self):
        # sha256 of MonteCarloSampler.run_batch([config]) on these twelve
        # configs, taken before that group route was removed: the backend is
        # its body for one config, drawing from the same stream
        configs = build_grid(
            "fig01", num_jobs=300, workstation_counts=(1, 10, 100),
            utilizations=(0.05, 0.2),
        ) + build_grid(
            "hetero-concentration", num_jobs=300, workstation_counts=(8, 16),
            concentration_levels=(0.0, 0.5, 1.0),
        )
        digest = hashlib.sha256()
        for config in configs:
            result = run_simulation(config, "monte-carlo-max")
            assert result.job_times.shape == result.task_times.shape == (300,)
            digest.update(result.job_times.tobytes())
            digest.update(result.task_times.tobytes())
        assert digest.hexdigest() == (
            "f276de36952cece6d5d110b18b9fc1eae7158709331e3604a009ae01edcddca1"
        )

    def test_fractional_demand_rejected(self, paper_owner):
        config = SimulationConfig(
            workstations=5, task_demand=50.5, owner=paper_owner, num_jobs=100
        )
        with pytest.raises(ValueError, match="integral task_demand"):
            run_simulation(config, "monte-carlo-max")

    def test_empty_batch(self):
        outcome = SweepRunner(jobs=1).run([], mode="monte-carlo-max")
        assert len(outcome) == 0 and outcome.results == []


class TestRunSimulationDispatch:
    def test_all_modes_run(self, paper_owner):
        config = SimulationConfig(
            workstations=3, task_demand=30, owner=paper_owner, num_jobs=60, seed=10
        )
        for mode in ("monte-carlo", "discrete-time", "event-driven"):
            result = run_simulation(config, mode)  # type: ignore[arg-type]
            assert result.mode == mode
            assert result.num_jobs == 60

    def test_unknown_mode(self, base_config):
        with pytest.raises(ValueError):
            run_simulation(base_config, "quantum")  # type: ignore[arg-type]
