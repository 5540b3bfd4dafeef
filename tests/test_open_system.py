"""Tests for the open-system (job-stream) mode: arrival specs, the simulator,
queueing metrics, the M/M/1 cross-check, caching and the arrival-sweep grid."""
# simlint: ignore-file[SL004] - unit tests drive the concrete backend directly

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.cluster import (
    OpenJobRecord,
    OpenSystemResult,
    OpenSystemSimulator,
    SimulationConfig,
    run_simulation,
)
from repro.core import JobArrivalSpec, OwnerSpec, ScenarioSpec
from repro.engine import ResultCache, SweepRunner, build_grid, config_fingerprint, grid_mode
from repro.experiments import EXPERIMENTS, QueueingRow, open_system_experiment
from repro.stats import steady_state_interval, warmup_truncate


def _open_config(
    arrivals: JobArrivalSpec,
    workstations: int = 4,
    task_demand: float = 50.0,
    owner: OwnerSpec | None = None,
    num_jobs: int = 60,
    num_batches: int = 4,
    seed: int = 7,
    policy: str = "static",
) -> SimulationConfig:
    scenario = ScenarioSpec.homogeneous(
        workstations,
        owner if owner is not None else OwnerSpec(demand=10.0, utilization=0.1),
        policy=policy,
        arrivals=arrivals,
    )
    return SimulationConfig.from_scenario(
        scenario,
        task_demand=task_demand,
        num_jobs=num_jobs,
        num_batches=num_batches,
        seed=seed,
    )


class TestJobArrivalSpec:
    def test_poisson_constructor(self):
        spec = JobArrivalSpec.poisson(rate=0.25)
        assert spec.kind == "poisson"
        assert spec.mean_interarrival == pytest.approx(4.0)
        assert spec.mean_rate == pytest.approx(0.25)
        assert spec.interarrival(0) is None

    def test_deterministic_constructor(self):
        spec = JobArrivalSpec.deterministic(rate=0.5)
        assert spec.interarrival(0) == pytest.approx(2.0)
        assert spec.interarrival(99) == pytest.approx(2.0)

    def test_trace_constructor_cycles(self):
        spec = JobArrivalSpec.from_trace((1.0, 2.0, 3.0))
        assert spec.interarrival(0) == 1.0
        assert spec.interarrival(4) == 2.0
        assert spec.mean_interarrival == pytest.approx(2.0)
        assert spec.mean_rate == pytest.approx(0.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown arrival kind"):
            JobArrivalSpec(kind="bursty", rate=1.0)

    def test_rate_validation(self):
        with pytest.raises(ValueError, match="positive finite rate"):
            JobArrivalSpec.poisson(rate=0.0)
        with pytest.raises(ValueError, match="positive finite rate"):
            JobArrivalSpec.deterministic(rate=-1.0)
        with pytest.raises(ValueError, match="positive finite rate"):
            JobArrivalSpec(kind="poisson", rate=None)

    def test_trace_validation(self):
        with pytest.raises(ValueError, match="needs interarrivals"):
            JobArrivalSpec(kind="trace")
        with pytest.raises(ValueError, match="takes no rate"):
            JobArrivalSpec(kind="trace", rate=1.0, interarrivals=(1.0,))
        with pytest.raises(ValueError, match="finite and >= 0"):
            JobArrivalSpec.from_trace((1.0, -0.5))
        with pytest.raises(ValueError, match="only apply to the trace kind"):
            JobArrivalSpec(kind="poisson", rate=1.0, interarrivals=(1.0,))

    def test_zero_gap_trace_allowed(self):
        # A burst trace (all arrivals at once) is legal; its mean rate is inf.
        spec = JobArrivalSpec.from_trace((0.0,))
        assert spec.mean_interarrival == 0.0
        assert spec.mean_rate == float("inf")

    def test_warmup_and_concurrency_validation(self):
        with pytest.raises(ValueError, match="warmup_fraction"):
            JobArrivalSpec.poisson(rate=1.0, warmup_fraction=1.0)
        with pytest.raises(ValueError, match="max_concurrent_jobs"):
            JobArrivalSpec.poisson(rate=1.0, max_concurrent_jobs=0)
        with pytest.raises(ValueError, match="demand_kind"):
            JobArrivalSpec.poisson(rate=1.0, demand_kind="")

    def test_demand_kwargs_canonicalised(self):
        a = JobArrivalSpec.poisson(
            rate=1.0, demand_kind="hyperexponential",
            demand_kwargs={"squared_cv": 4.0},
        )
        b = JobArrivalSpec.poisson(
            rate=1.0, demand_kind="hyperexponential",
            demand_kwargs=[("squared_cv", 4.0)],
        )
        assert a == b
        assert hash(a) == hash(b)

    def test_offered_load(self):
        spec = JobArrivalSpec.poisson(rate=0.5)
        assert spec.offered_load(1.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            spec.offered_load(0.0)


class TestScenarioArrivals:
    def test_closed_by_default(self, paper_owner):
        scenario = ScenarioSpec.homogeneous(4, paper_owner)
        assert scenario.arrivals is None
        assert not scenario.is_open

    def test_with_arrivals_round_trip(self, paper_owner):
        spec = JobArrivalSpec.poisson(rate=0.01)
        opened = ScenarioSpec.homogeneous(4, paper_owner).with_arrivals(spec)
        assert opened.is_open
        assert opened.arrivals == spec
        assert not opened.with_arrivals(None).is_open

    def test_arrivals_type_checked(self, paper_owner):
        with pytest.raises(TypeError, match="JobArrivalSpec"):
            ScenarioSpec.homogeneous(4, paper_owner, arrivals="poisson")

    def test_from_owners_accepts_arrivals(self, paper_owner):
        spec = JobArrivalSpec.poisson(rate=0.01)
        scenario = ScenarioSpec.from_owners([paper_owner] * 3, arrivals=spec)
        assert scenario.is_open


class TestBackendGuards:
    @pytest.mark.parametrize("mode", ["monte-carlo", "discrete-time", "event-driven"])
    def test_closed_backends_reject_open_scenarios(self, mode):
        config = _open_config(JobArrivalSpec.poisson(rate=0.001))
        with pytest.raises(ValueError, match="open-system"):
            run_simulation(config, mode)

    def test_open_backend_requires_arrivals(self, paper_owner):
        config = SimulationConfig(
            workstations=4, task_demand=50.0, owner=paper_owner,
            num_jobs=20, num_batches=4,
        )
        with pytest.raises(ValueError, match="job-arrival"):
            run_simulation(config, "open-system")

    def test_unknown_mode_still_rejected(self, paper_owner):
        config = SimulationConfig(
            workstations=1, task_demand=10.0, owner=paper_owner,
            num_jobs=4, num_batches=2,
        )
        with pytest.raises(ValueError, match="unknown simulation mode"):
            run_simulation(config, "half-open")

    def test_short_open_stream_is_expressible(self):
        # num_jobs < num_batches is legal for open scenarios (the batch-means
        # interval degrades to None) but stays an error for closed configs.
        config = _open_config(
            JobArrivalSpec.from_trace((0.0,), warmup_fraction=0.0), num_jobs=1
        )
        assert config.num_jobs == 1
        with pytest.raises(ValueError, match="num_jobs"):
            SimulationConfig(
                workstations=4, task_demand=50.0,
                owner=OwnerSpec(demand=10.0, utilization=0.1),
                num_jobs=1, num_batches=4,
            )


class TestOpenSystemSimulator:
    def test_fcfs_record_invariants(self):
        config = _open_config(JobArrivalSpec.poisson(rate=0.002), num_jobs=50)
        result = run_simulation(config, "open-system")
        assert isinstance(result, OpenSystemResult)
        assert result.num_jobs == 50
        # Arrival order is chronological; FCFS admission starts jobs in order.
        assert np.all(np.diff(result.arrival_times) >= 0)
        assert np.all(np.diff(result.start_times) >= 0)
        assert np.all(result.start_times >= result.arrival_times)
        assert np.all(result.end_times > result.start_times)
        # response = wait + service, job by job.
        np.testing.assert_allclose(
            result.response_times, result.wait_times + result.service_times
        )

    def test_reproducible_and_seed_sensitive(self):
        config = _open_config(JobArrivalSpec.poisson(rate=0.002), num_jobs=40)
        a = run_simulation(config, "open-system")
        b = run_simulation(config, "open-system")
        np.testing.assert_array_equal(a.end_times, b.end_times)
        c = run_simulation(
            _open_config(JobArrivalSpec.poisson(rate=0.002), num_jobs=40, seed=8),
            "open-system",
        )
        assert not np.array_equal(a.end_times, c.end_times)

    def test_deterministic_arrival_epochs(self):
        config = _open_config(
            JobArrivalSpec.deterministic(rate=0.001), num_jobs=10
        )
        result = run_simulation(config, "open-system")
        np.testing.assert_allclose(
            result.arrival_times, 1000.0 * np.arange(1, 11)
        )

    def test_trace_arrival_epochs_cycle(self):
        config = _open_config(
            JobArrivalSpec.from_trace((100.0, 300.0)), num_jobs=4
        )
        result = run_simulation(config, "open-system")
        np.testing.assert_allclose(
            result.arrival_times, [100.0, 400.0, 500.0, 800.0]
        )

    def test_deterministic_demand_is_the_job_demand(self):
        config = _open_config(JobArrivalSpec.deterministic(rate=0.001), num_jobs=6)
        result = run_simulation(config, "open-system")
        np.testing.assert_allclose(result.demands, config.job_demand)

    def test_exponential_demand_matches_mean(self):
        config = _open_config(
            JobArrivalSpec.deterministic(rate=0.0005, demand_kind="exponential"),
            num_jobs=400,
            num_batches=10,
        )
        result = run_simulation(config, "open-system")
        assert result.demands.mean() == pytest.approx(config.job_demand, rel=0.15)
        assert result.demands.std() > 0

    def test_slowdown_at_least_one(self):
        config = _open_config(JobArrivalSpec.poisson(rate=0.003), num_jobs=60)
        result = run_simulation(config, "open-system")
        # Response >= ideal dedicated makespan (demand / W) for every job.
        assert np.all(result.slowdowns >= 1.0 - 1e-12)
        assert result.mean_slowdown >= 1.0

    def test_queue_builds_under_heavy_load(self):
        light = run_simulation(
            _open_config(JobArrivalSpec.poisson(rate=0.0005), num_jobs=80),
            "open-system",
        )
        heavy = run_simulation(
            _open_config(JobArrivalSpec.poisson(rate=0.01), num_jobs=80),
            "open-system",
        )
        assert heavy.mean_wait_time > light.mean_wait_time
        assert heavy.mean_response_time > light.mean_response_time

    def test_concurrent_admission_overlaps_jobs(self):
        burst = JobArrivalSpec.from_trace((0.0,), warmup_fraction=0.0)
        serial = run_simulation(
            _open_config(burst, num_jobs=10), "open-system"
        )
        overlapped = run_simulation(
            _open_config(
                JobArrivalSpec.from_trace(
                    (0.0,), warmup_fraction=0.0, max_concurrent_jobs=10
                ),
                num_jobs=10,
            ),
            "open-system",
        )
        # Strict FCFS serialises the burst; width-10 admission starts all at 0.
        assert np.all(np.diff(serial.start_times) > 0)
        np.testing.assert_allclose(overlapped.start_times, 0.0)
        assert overlapped.makespan < serial.makespan

    def test_measured_owner_utilization_reported(self):
        config = _open_config(JobArrivalSpec.poisson(rate=0.001), num_jobs=40)
        result = run_simulation(config, "open-system")
        assert result.measured_owner_utilization is not None
        assert 0.0 < result.measured_owner_utilization < 1.0

    def test_simulator_class_is_registered(self):
        config = _open_config(JobArrivalSpec.poisson(rate=0.001), num_jobs=20)
        result = OpenSystemSimulator(config).run()
        assert result.mode == "open-system"

    def test_open_job_record_properties(self):
        record = OpenJobRecord(job_id=0, arrival_time=10.0, demand=100.0)
        assert not record.completed
        record.start_time = 15.0
        record.end_time = 45.0
        assert record.completed
        assert record.wait_time == pytest.approx(5.0)
        assert record.service_time == pytest.approx(30.0)
        assert record.response_time == pytest.approx(35.0)
        assert record.slowdown(25.0) == pytest.approx(35.0 / 25.0)
        with pytest.raises(ValueError):
            record.slowdown(0.0)


class TestQueueingMetrics:
    def _result(self, num_jobs=100, warmup_fraction=0.1, num_batches=4):
        return run_simulation(
            _open_config(
                JobArrivalSpec.poisson(rate=0.002, warmup_fraction=warmup_fraction),
                num_jobs=num_jobs,
                num_batches=num_batches,
            ),
            "open-system",
        )

    def test_warmup_truncation_applied(self):
        result = self._result(num_jobs=100, warmup_fraction=0.2)
        assert result.warmup_jobs == 20
        assert result.steady_response_times.size == 80
        np.testing.assert_array_equal(
            result.steady_response_times, result.response_times[20:]
        )

    def test_interval_present_for_long_runs(self):
        result = self._result()
        interval = result.response_time_interval
        assert interval is not None
        assert interval.num_batches == 4
        lo = result.mean_response_time - interval.half_width
        hi = result.mean_response_time + interval.half_width
        assert lo < result.mean_response_time < hi

    def test_interval_none_for_single_arrival(self):
        result = run_simulation(
            _open_config(
                JobArrivalSpec.from_trace((0.0,), warmup_fraction=0.0), num_jobs=1
            ),
            "open-system",
        )
        assert result.response_time_interval is None
        assert result.num_jobs == 1
        assert np.isnan(result.metrics()["response_ci_half_width"])

    def test_p95_dominates_mean(self):
        result = self._result()
        assert result.p95_response_time >= result.mean_response_time

    def test_throughput_and_utilization(self):
        result = self._result()
        assert result.throughput == pytest.approx(
            result.num_jobs / result.makespan
        )
        assert result.parallel_utilization == pytest.approx(
            float(np.sum(result.demands))
            / (result.config.workstations * result.makespan)
        )
        assert 0.0 < result.parallel_utilization < 1.0

    def test_metrics_mapping_keys(self):
        metrics = self._result().metrics()
        assert set(metrics) == {
            "mean_response_time",
            "p95_response_time",
            "p99_response_time",
            "max_response_time",
            "mean_wait_time",
            "mean_slowdown",
            "throughput",
            "parallel_utilization",
            "response_ci_half_width",
            "completed_jobs",
            "warmup_jobs",
            "admission_preemptions",
        }

    def test_summary_renders(self):
        summary = self._result().summary()
        assert "[open-system]" in summary
        assert "poisson" in summary
        assert "warmup" in summary


class TestWarmupTruncateStats:
    def test_basic_truncation(self):
        data = np.arange(10.0)
        np.testing.assert_array_equal(warmup_truncate(data, 0.3), data[3:])
        np.testing.assert_array_equal(warmup_truncate(data, 0.0), data)

    def test_empty_series(self):
        assert warmup_truncate([], 0.5).size == 0

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            warmup_truncate([1.0], 1.0)
        with pytest.raises(ValueError):
            warmup_truncate([1.0], -0.1)

    def test_steady_state_interval(self):
        data = np.linspace(1.0, 2.0, 100)
        interval = steady_state_interval(data, 0.1, num_batches=5)
        assert interval is not None
        assert interval.total_observations == 90
        assert steady_state_interval(data[:4], 0.0, num_batches=5) is None


class TestMM1CrossCheck:
    def test_mean_response_time_within_ci(self):
        """1 station, idle owner, Poisson(lambda) arrivals, exp(S) demands.

        This is exactly M/M/1 FCFS with rho = lambda * S, whose mean response
        time is S / (1 - rho); the simulated estimate must agree within the
        batch-means confidence interval.
        """
        service_mean = 100.0
        rate = 0.005  # rho = 0.5
        analytic = service_mean / (1.0 - rate * service_mean)
        config = SimulationConfig.from_scenario(
            ScenarioSpec.homogeneous(
                1,
                OwnerSpec.idle(),
                arrivals=JobArrivalSpec.poisson(
                    rate=rate, demand_kind="exponential"
                ),
            ),
            task_demand=service_mean,
            num_jobs=6000,
            num_batches=20,
            seed=11,
        )
        result = run_simulation(config, "open-system")
        interval = result.response_time_interval
        assert interval is not None
        assert abs(result.mean_response_time - analytic) <= interval.half_width

    def test_md1_mean_wait_agrees(self):
        """Deterministic demands make it M/D/1: W_q = rho*S / (2*(1 - rho))."""
        service = 100.0
        rate = 0.004  # rho = 0.4
        rho = rate * service
        analytic_wait = rho * service / (2.0 * (1.0 - rho))
        config = SimulationConfig.from_scenario(
            ScenarioSpec.homogeneous(
                1,
                OwnerSpec.idle(),
                arrivals=JobArrivalSpec.poisson(rate=rate),
            ),
            task_demand=service,
            num_jobs=6000,
            num_batches=20,
            seed=13,
        )
        result = run_simulation(config, "open-system")
        assert result.mean_wait_time == pytest.approx(analytic_wait, rel=0.15)
        # Deterministic service: every service time is exactly S.
        np.testing.assert_allclose(result.service_times, service)


class TestOpenSystemCache:
    def _config(self, num_jobs=30, seed=3):
        return _open_config(
            JobArrivalSpec.poisson(rate=0.002), num_jobs=num_jobs, seed=seed
        )

    def test_round_trip(self, tmp_path):
        config = self._config()
        result = run_simulation(config, "open-system")
        cache = ResultCache(tmp_path)
        cache.store(config, "open-system", result)
        loaded = cache.load(config, "open-system")
        assert isinstance(loaded, OpenSystemResult)
        np.testing.assert_array_equal(loaded.arrival_times, result.arrival_times)
        np.testing.assert_array_equal(loaded.end_times, result.end_times)
        np.testing.assert_array_equal(loaded.demands, result.demands)
        assert loaded.mean_response_time == result.mean_response_time
        assert loaded.measured_owner_utilization == pytest.approx(
            result.measured_owner_utilization
        )
        ci = loaded.response_time_interval
        assert ci is not None
        assert ci.half_width == result.response_time_interval.half_width

    def test_open_and_closed_fingerprints_differ(self, paper_owner):
        open_cfg = self._config()
        closed = SimulationConfig(
            workstations=open_cfg.workstations,
            task_demand=open_cfg.task_demand,
            owner=paper_owner,
            num_jobs=open_cfg.num_jobs,
            num_batches=open_cfg.num_batches,
            seed=open_cfg.seed,
        )
        assert config_fingerprint(open_cfg, "open-system") != config_fingerprint(
            closed, "event-driven"
        )
        assert config_fingerprint(open_cfg, "open-system") != config_fingerprint(
            closed, "open-system"
        )

    def test_arrival_fields_enter_the_fingerprint(self):
        base = self._config()
        faster = _open_config(
            JobArrivalSpec.poisson(rate=0.004), num_jobs=30, seed=3
        )
        wider = _open_config(
            JobArrivalSpec.poisson(rate=0.002, max_concurrent_jobs=2),
            num_jobs=30,
            seed=3,
        )
        prints = {
            config_fingerprint(cfg, "open-system") for cfg in (base, faster, wider)
        }
        assert len(prints) == 3

    def test_wrong_job_count_is_a_miss(self, tmp_path):
        config = self._config()
        cache = ResultCache(tmp_path)
        cache.store(config, "open-system", run_simulation(config, "open-system"))
        # Same fingerprint file, mismatched num_jobs payload -> treated as miss.
        other = self._config(num_jobs=31)
        cache.root.joinpath(
            f"{config_fingerprint(other, 'open-system')}.npz"
        ).write_bytes(cache.path_for(config, "open-system").read_bytes())
        assert cache.load(other, "open-system") is None


class TestArrivalSweepGrid:
    def test_grid_shape_and_mode(self):
        configs = build_grid(
            "arrival-sweep",
            workstation_counts=(2, 4),
            utilizations=(0.1,),
            arrival_rates=(0.25, 0.5),
            num_jobs=20,
        )
        assert len(configs) == 4
        assert grid_mode("arrival-sweep") == "open-system"
        for config in configs:
            assert config.scenario is not None
            assert config.scenario.is_open
            assert config.scenario.arrivals.kind == "poisson"

    def test_rates_normalized_to_saturation(self):
        (config,) = build_grid(
            "arrival-sweep",
            workstation_counts=(4,),
            utilizations=(0.2,),
            arrival_rates=(0.5,),
            num_jobs=20,
        )
        saturation = (1.0 - 0.2) / config.task_demand
        assert config.scenario.arrivals.rate == pytest.approx(0.5 * saturation)

    def test_unstable_rates_rejected(self):
        with pytest.raises(ValueError, match="stable"):
            build_grid("arrival-sweep", arrival_rates=(1.5,), num_jobs=20)

    def test_rates_only_on_arrival_grid(self):
        with pytest.raises(ValueError, match="arrival-rate axis"):
            build_grid("fig01", arrival_rates=(0.5,))

    def test_per_point_seeds_are_stable(self):
        full = build_grid(
            "arrival-sweep",
            workstation_counts=(2, 4),
            utilizations=(0.1,),
            arrival_rates=(0.25, 0.5),
            num_jobs=20,
        )
        subset = build_grid(
            "arrival-sweep",
            workstation_counts=(4,),
            utilizations=(0.1,),
            arrival_rates=(0.5,),
            num_jobs=20,
        )
        by_key = {
            (c.workstations, c.scenario.arrivals.rate): c.seed for c in full
        }
        assert by_key[(4, subset[0].scenario.arrivals.rate)] == subset[0].seed

    def test_sweep_runs_and_replays_from_cache(self, tmp_path):
        configs = build_grid(
            "arrival-sweep",
            workstation_counts=(2,),
            utilizations=(0.1,),
            arrival_rates=(0.3, 0.6),
            num_jobs=30,
            num_batches=4,
        )
        runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path))
        first = runner.run(configs, mode="open-system")
        assert first.simulated == 2 and first.cache_hits == 0
        replay = runner.run(configs, mode="open-system")
        assert replay.simulated == 0 and replay.cache_hits == 2
        for a, b in zip(first, replay):
            np.testing.assert_array_equal(a.end_times, b.end_times)
            assert a.mean_response_time == b.mean_response_time


class TestOpenSystemExperiment:
    def test_registered(self):
        assert "open_system" in EXPERIMENTS
        assert EXPERIMENTS["open_system"].kind == "queueing"

    def test_rows_and_monotone_load(self):
        rows = open_system_experiment(
            workstation_counts=(2,),
            utilizations=(0.1,),
            arrival_rates=(0.25, 0.75),
            num_jobs=60,
            num_batches=4,
        )
        assert len(rows) == 2
        assert all(isinstance(row, QueueingRow) for row in rows)
        for row in rows:
            assert "mean_response_time" in row.metrics
            assert row.as_dict()["label"] == row.label
            assert row.parameters["workstations"] == 2.0
        # Higher normalized arrival rate -> more queueing -> slower responses.
        assert (
            rows[1].metrics["mean_response_time"]
            > rows[0].metrics["mean_response_time"]
        )


class TestOpenSystemCLI:
    def test_arrival_sweep_end_to_end_with_cache(self, tmp_path, capsys):
        args = [
            "sweep", "arrival-sweep",
            "--workstations", "2",
            "--utilizations", "0.1",
            "--arrival-rates", "0.3,0.6",
            "--num-jobs", "30",
            "--jobs", "1",
            "--cache-dir", str(tmp_path),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "(2 simulated, 0 cached)" in out
        assert "[event-kernel]" in out and "mode=open-system" in out
        assert main(args) == 0
        assert "(0 simulated, 2 cached)" in capsys.readouterr().out

    def test_arrival_rates_rejected_on_other_grids(self, capsys):
        assert main(["sweep", "fig01", "--arrival-rates", "0.5"]) == 2
        assert "arrival-rate axis" in capsys.readouterr().err

    def test_open_system_experiment_listed(self, capsys):
        assert main(["list"]) == 0
        assert "open_system" in capsys.readouterr().out
