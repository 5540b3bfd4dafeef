"""Tests for the admission & space-sharing subsystem: job classes, admission
policies, closed-loop sources, the pinned full-width FCFS reduction, cache
schema 4, the admission-sweep grid, experiments and the CLI."""
# simlint: ignore-file[SL004] - unit tests drive the concrete backend directly

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.cluster import (
    ADMISSION_POLICY_NAMES,
    POLICY_NAMES,
    EasyBackfillAdmission,
    FCFSAdmission,
    OpenSystemResult,
    OpenSystemSimulator,
    PriorityAdmission,
    SimulationConfig,
    make_admission_policy,
    run_simulation,
)
from repro.core import FCFS_ADMISSION, JobArrivalSpec, JobClassSpec, OwnerSpec, ScenarioSpec
from repro.engine import (
    CACHE_VERSION,
    ResultCache,
    SweepRunner,
    build_grid,
    config_fingerprint,
    grid_mode,
)
from repro.experiments import (
    EXPERIMENTS,
    FigureResult,
    QueueingRow,
    admission_experiment,
    response_time_curves,
)


def _classed_config(
    job_classes,
    admission_policy: str = "fcfs",
    admission_kwargs=None,
    workstations: int = 8,
    task_demand: float = 50.0,
    rate: float = 0.004,
    kind: str = "poisson",
    num_jobs: int = 80,
    num_batches: int = 4,
    seed: int = 7,
    policy: str = "static",
    owner: OwnerSpec | None = None,
) -> SimulationConfig:
    if kind == "closed":
        arrivals = JobArrivalSpec.closed_loop(
            job_classes,
            admission_policy=admission_policy,
            admission_kwargs=admission_kwargs or (),
        )
    else:
        arrivals = JobArrivalSpec(
            kind=kind,
            rate=rate,
            job_classes=tuple(job_classes),
            admission_policy=admission_policy,
            admission_kwargs=admission_kwargs or (),
        )
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


class TestJobClassSpec:
    def test_open_class_defaults(self):
        cls = JobClassSpec.open("narrow", width=2)
        assert cls.width == 2 and cls.priority == 0 and not cls.is_closed

    def test_closed_class(self):
        cls = JobClassSpec.closed("users", 4, population=3, think_time=100.0)
        assert cls.is_closed and cls.population == 3

    def test_width_validation(self):
        with pytest.raises(ValueError, match="width"):
            JobClassSpec("bad", width=0)
        with pytest.raises(ValueError, match="width"):
            JobClassSpec("bad", width=1.5)

    def test_weight_and_priority_validation(self):
        with pytest.raises(ValueError, match="weight"):
            JobClassSpec("bad", width=1, weight=0.0)
        with pytest.raises(ValueError, match="priority"):
            JobClassSpec("bad", width=1, priority=0.5)

    def test_think_time_requires_population(self):
        with pytest.raises(ValueError, match="think_time"):
            JobClassSpec("bad", width=1, think_time=5.0)
        with pytest.raises(ValueError, match="think_time"):
            JobClassSpec("bad", width=1, population=2)

    def test_name_required(self):
        with pytest.raises(ValueError, match="name"):
            JobClassSpec("", width=1)

    def test_think_kwargs_canonicalised(self):
        a = JobClassSpec.closed(
            "c", 1, population=1, think_time=10.0,
            think_time_kind="hyperexponential",
            think_time_kwargs={"squared_cv": 4.0},
        )
        b = JobClassSpec.closed(
            "c", 1, population=1, think_time=10.0,
            think_time_kind="hyperexponential",
            think_time_kwargs=[("squared_cv", 4.0)],
        )
        assert a == b and hash(a) == hash(b)


class TestArrivalSpecClasses:
    def test_classless_defaults(self):
        spec = JobArrivalSpec.poisson(rate=1.0)
        assert not spec.is_space_shared
        assert spec.admission_policy == FCFS_ADMISSION

    def test_class_names_unique(self):
        with pytest.raises(ValueError, match="unique"):
            JobArrivalSpec.poisson(
                rate=1.0,
                job_classes=(JobClassSpec("a", 1), JobClassSpec("a", 2)),
            )

    def test_classes_exclusive_with_max_concurrent(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            JobArrivalSpec.poisson(
                rate=1.0,
                max_concurrent_jobs=2,
                job_classes=(JobClassSpec("a", 1),),
            )

    def test_admission_policy_needs_classes(self):
        with pytest.raises(ValueError, match="job classes"):
            JobArrivalSpec.poisson(rate=1.0, admission_policy="priority")
        with pytest.raises(ValueError, match="job classes"):
            JobArrivalSpec.poisson(
                rate=1.0, admission_kwargs={"preemptive": 1.0}
            )

    def test_closed_kind_validation(self):
        with pytest.raises(ValueError, match="no rate"):
            JobArrivalSpec(kind="closed", rate=1.0)
        with pytest.raises(ValueError, match="closed-loop"):
            JobArrivalSpec(kind="closed", job_classes=(JobClassSpec("a", 1),))
        spec = JobArrivalSpec.closed_loop(
            (JobClassSpec.closed("a", 1, population=2, think_time=1.0),)
        )
        assert spec.mean_rate == 0.0
        assert spec.mean_interarrival == float("inf")
        assert spec.total_population == 2

    def test_all_closed_classes_need_closed_kind(self):
        with pytest.raises(ValueError, match="closed"):
            JobArrivalSpec.poisson(
                rate=1.0,
                job_classes=(
                    JobClassSpec.closed("a", 1, population=1, think_time=1.0),
                ),
            )

    def test_class_index_views(self):
        spec = JobArrivalSpec.poisson(
            rate=1.0,
            job_classes=(
                JobClassSpec("open1", 2),
                JobClassSpec.closed("cl", 1, population=2, think_time=5.0),
                JobClassSpec("open2", 4),
            ),
        )
        assert spec.open_class_indices == (0, 2)
        assert spec.closed_class_indices == (1,)
        assert spec.is_space_shared


class TestAdmissionPolicyRegistry:
    def test_names(self):
        assert set(ADMISSION_POLICY_NAMES) == {"fcfs", "easy-backfill", "priority"}

    def test_make_policy_coercion(self):
        policy = make_admission_policy("priority", preemptive=1.0)
        assert isinstance(policy, PriorityAdmission) and policy.preemptive is True
        backfill = make_admission_policy("easy-backfill", runtime_factor=3)
        assert isinstance(backfill, EasyBackfillAdmission)
        assert backfill.runtime_factor == 3.0
        assert isinstance(make_admission_policy("fcfs"), FCFSAdmission)

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown admission policy"):
            make_admission_policy("lottery")

    def test_runtime_factor_validated(self):
        with pytest.raises(ValueError, match="runtime_factor"):
            EasyBackfillAdmission(runtime_factor=0.0)


class TestFullWidthFCFSReduction:
    """Pin: one class with width W under FCFS reproduces the classless PR-3
    open-system results bitwise on every registered scheduling policy."""

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_bitwise_on_every_scheduling_policy(self, policy):
        owner = OwnerSpec(demand=10.0, utilization=0.1)
        base = ScenarioSpec.homogeneous(
            4, owner, policy=policy, arrivals=JobArrivalSpec.poisson(rate=0.002)
        )
        classed = base.with_arrivals(
            JobArrivalSpec.poisson(
                rate=0.002, job_classes=(JobClassSpec("all", width=4),)
            )
        )
        kwargs = dict(task_demand=50.0, num_jobs=50, num_batches=4, seed=7)
        a = run_simulation(
            SimulationConfig.from_scenario(base, **kwargs), "open-system"
        )
        b = run_simulation(
            SimulationConfig.from_scenario(classed, **kwargs), "open-system"
        )
        np.testing.assert_array_equal(a.arrival_times, b.arrival_times)
        np.testing.assert_array_equal(a.start_times, b.start_times)
        np.testing.assert_array_equal(a.end_times, b.end_times)
        np.testing.assert_array_equal(a.demands, b.demands)
        assert a.measured_owner_utilization == b.measured_owner_utilization
        # The classed result also reports the space-sharing arrays.
        np.testing.assert_array_equal(b.widths, 4.0)
        np.testing.assert_array_equal(b.class_ids, 0.0)
        np.testing.assert_array_equal(b.restarts, 0.0)

    @pytest.mark.parametrize("kind", ["deterministic", "trace"])
    def test_bitwise_on_deterministic_and_trace_arrivals(self, kind):
        owner = OwnerSpec(demand=10.0, utilization=0.1)
        if kind == "trace":
            base_arrivals = JobArrivalSpec.from_trace((100.0, 700.0))
            classed_arrivals = JobArrivalSpec.from_trace(
                (100.0, 700.0), job_classes=(JobClassSpec("all", width=4),)
            )
        else:
            base_arrivals = JobArrivalSpec.deterministic(rate=0.002)
            classed_arrivals = JobArrivalSpec.deterministic(
                rate=0.002, job_classes=(JobClassSpec("all", width=4),)
            )
        base = ScenarioSpec.homogeneous(4, owner, arrivals=base_arrivals)
        classed = ScenarioSpec.homogeneous(4, owner, arrivals=classed_arrivals)
        kwargs = dict(task_demand=50.0, num_jobs=30, num_batches=4, seed=11)
        a = run_simulation(
            SimulationConfig.from_scenario(base, **kwargs), "open-system"
        )
        b = run_simulation(
            SimulationConfig.from_scenario(classed, **kwargs), "open-system"
        )
        np.testing.assert_array_equal(a.end_times, b.end_times)
        np.testing.assert_array_equal(a.start_times, b.start_times)


class TestSpaceSharing:
    def test_width_must_fit_cluster(self):
        config = _classed_config((JobClassSpec("huge", width=16),))
        with pytest.raises(ValueError, match="width"):
            run_simulation(config, "open-system")

    def test_narrow_jobs_overlap(self):
        # Width-2 jobs on 8 stations: up to 4 run concurrently, so a burst
        # of 4 all starts at time 0 (strict FCFS would serialize full-width).
        spec = JobArrivalSpec.from_trace(
            (0.0,), warmup_fraction=0.0,
            job_classes=(JobClassSpec("narrow", width=2),),
        )
        scenario = ScenarioSpec.homogeneous(
            8, OwnerSpec.idle(), arrivals=spec
        )
        result = run_simulation(
            SimulationConfig.from_scenario(
                scenario, task_demand=50.0, num_jobs=4, num_batches=2, seed=1
            ),
            "open-system",
        )
        np.testing.assert_allclose(result.start_times, 0.0)
        np.testing.assert_array_equal(result.widths, 2.0)

    def test_controller_log_disjoint_stations(self):
        config = _classed_config(
            (JobClassSpec("narrow", width=3, weight=0.5),
             JobClassSpec("wide", width=8, weight=0.5)),
            num_jobs=60,
        )
        simulator = OpenSystemSimulator(config)
        simulator.run()
        controller = simulator.last_controller
        held: dict[int, set] = {}
        for event in controller.log:
            if event.kind == "admit":
                for station in event.stations:
                    assert all(
                        station not in stations for stations in held.values()
                    ), "two jobs share a station"
                held[event.job_id] = set(event.stations)
                assert sum(len(s) for s in held.values()) <= 8
            elif event.kind in ("release", "preempt"):
                held.pop(event.job_id)
        assert not held  # every admitted job eventually released

    def test_mean_slowdown_uses_width(self):
        spec = JobArrivalSpec.from_trace(
            (0.0,), warmup_fraction=0.0,
            job_classes=(JobClassSpec("narrow", width=2),),
        )
        scenario = ScenarioSpec.homogeneous(8, OwnerSpec.idle(), arrivals=spec)
        result = run_simulation(
            SimulationConfig.from_scenario(
                scenario, task_demand=50.0, num_jobs=1, num_batches=2, seed=1
            ),
            "open-system",
        )
        # One width-2 job, no owners, no queueing: demand 400 over 2 stations
        # is a 200-unit ideal makespan -> slowdown exactly 1.
        assert result.mean_slowdown == pytest.approx(1.0)

    def test_backfill_starts_narrow_past_blocked_head(self):
        # Burst: wide(8), wide(8), narrow(2). Under FCFS the narrow job waits
        # behind both wide ones; EASY backfilling cannot start it either while
        # the second wide job reserves the whole cluster... but with free
        # width 0 nothing changes. Use wide(6) head instead: 2 stations free.
        classes = (
            JobClassSpec("wide", width=6, weight=0.5),
            JobClassSpec("narrow", width=2, weight=0.5),
        )

        def run(policy_name):
            spec = JobArrivalSpec.from_trace(
                # arrivals at t=0: wide, wide, narrow (class chosen by rng --
                # use deterministic trace demand order instead via seed scan)
                (0.0,),
                warmup_fraction=0.0,
                job_classes=classes,
                admission_policy=policy_name,
            )
            scenario = ScenarioSpec.homogeneous(
                8, OwnerSpec.idle(), arrivals=spec
            )
            return run_simulation(
                SimulationConfig.from_scenario(
                    scenario, task_demand=50.0, num_jobs=12, num_batches=2,
                    seed=3,
                ),
                "open-system",
            )

        fcfs = run("fcfs")
        easy = run("easy-backfill")
        # Same arrivals and demands, same class draws (same seed).
        np.testing.assert_array_equal(fcfs.demands, easy.demands)
        np.testing.assert_array_equal(fcfs.class_ids, easy.class_ids)
        # Backfilling can only start jobs earlier, never later, on a
        # dedicated cluster burst; and it must strictly help someone here.
        assert np.all(easy.start_times <= fcfs.start_times + 1e-9)
        assert easy.mean_wait_time <= fcfs.mean_wait_time

    def test_priority_admission_orders_queue(self):
        # A burst of jobs with the 'vip' class at higher priority: under the
        # priority policy every vip job must start no later than any standard
        # job that arrived in the same burst.
        classes = (
            JobClassSpec("std", width=4, weight=0.5, priority=0),
            JobClassSpec("vip", width=4, weight=0.5, priority=5),
        )
        spec = JobArrivalSpec.from_trace(
            (0.0,), warmup_fraction=0.0,
            job_classes=classes, admission_policy="priority",
        )
        scenario = ScenarioSpec.homogeneous(4, OwnerSpec.idle(), arrivals=spec)
        result = run_simulation(
            SimulationConfig.from_scenario(
                scenario, task_demand=50.0, num_jobs=16, num_batches=2, seed=5
            ),
            "open-system",
        )
        # The first arrival is admitted before the rest of the burst exists;
        # every *queued* vip must start before every queued standard job.
        queued = np.arange(result.num_jobs) != 0
        ids = result.class_ids
        vip = result.start_times[(ids == 1.0) & queued]
        std = result.start_times[(ids == 0.0) & queued]
        assert vip.size and std.size
        assert vip.max() <= std.min() + 1e-9

    def test_preemptive_priority_restarts_low_priority_jobs(self):
        classes = (
            JobClassSpec("std", width=8, weight=0.7, priority=0),
            JobClassSpec("vip", width=8, weight=0.3, priority=5),
        )
        config = _classed_config(
            classes, admission_policy="priority",
            admission_kwargs={"preemptive": 1.0},
            rate=0.005, num_jobs=120, seed=3,
        )
        result = run_simulation(config, "open-system")
        assert isinstance(result, OpenSystemResult)
        assert result.total_admission_preemptions > 0
        assert result.metrics()["admission_preemptions"] > 0
        # Every job still completes, restarts and all.
        assert np.all(np.isfinite(result.end_times))
        assert np.all(result.end_times > result.start_times)
        # vip jobs see better service than the preempted standard class.
        per_class = result.class_metrics()
        assert per_class["vip"]["mean_response_time"] < (
            per_class["std"]["mean_response_time"]
        )

    def test_non_preemptive_priority_never_restarts(self):
        classes = (
            JobClassSpec("std", width=8, weight=0.7, priority=0),
            JobClassSpec("vip", width=8, weight=0.3, priority=5),
        )
        config = _classed_config(
            classes, admission_policy="priority", rate=0.005, num_jobs=80,
        )
        result = run_simulation(config, "open-system")
        assert result.total_admission_preemptions == 0.0

    def test_preemption_at_admission_instant_does_not_crash(self):
        """Regression (hypothesis falsifying example): a job admitted in the
        same event instant in which a more important arrival preempts it is
        still parked at its admission event — the eviction must requeue it,
        not crash the run with an unhandled Interrupt."""
        classes = (
            JobClassSpec("c0", width=1, weight=0.5, priority=0),
            JobClassSpec("c1", width=1, weight=0.5, priority=0),
            JobClassSpec("c2", width=1, weight=0.5, priority=1),
        )
        spec = JobArrivalSpec.from_trace(
            (40.0, 0.0, 0.0),
            warmup_fraction=0.0,
            job_classes=classes,
            admission_policy="priority",
            admission_kwargs={"preemptive": 1.0},
        )
        scenario = ScenarioSpec.homogeneous(
            2, OwnerSpec(demand=10.0, utilization=0.0), arrivals=spec
        )
        result = run_simulation(
            SimulationConfig.from_scenario(
                scenario, task_demand=40.0, num_jobs=8, num_batches=2, seed=35
            ),
            "open-system",
        )
        assert np.all(np.isfinite(result.end_times))

    def test_space_shared_reproducible(self):
        classes = (
            JobClassSpec("narrow", width=2, weight=0.6),
            JobClassSpec("wide", width=8, weight=0.4, priority=1),
        )
        config = _classed_config(
            classes, admission_policy="priority",
            admission_kwargs={"preemptive": 1.0}, num_jobs=60,
        )
        a = run_simulation(config, "open-system")
        b = run_simulation(config, "open-system")
        np.testing.assert_array_equal(a.end_times, b.end_times)
        np.testing.assert_array_equal(a.restarts, b.restarts)

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_scheduling_policies_compose_with_space_sharing(self, policy):
        classes = (
            JobClassSpec("narrow", width=3, weight=0.5),
            JobClassSpec("wide", width=6, weight=0.5),
        )
        config = _classed_config(
            classes, workstations=6, policy=policy, num_jobs=40,
        )
        result = run_simulation(config, "open-system")
        assert np.all(np.isfinite(result.end_times))
        assert np.all(result.start_times >= result.arrival_times)


class TestClosedLoopSources:
    def test_population_limits_concurrency(self):
        spec = JobArrivalSpec.closed_loop(
            (JobClassSpec.closed("users", width=4, population=2,
                                 think_time=0.0,
                                 think_time_kind="deterministic"),),
            warmup_fraction=0.0,
        )
        scenario = ScenarioSpec.homogeneous(8, OwnerSpec.idle(), arrivals=spec)
        result = run_simulation(
            SimulationConfig.from_scenario(
                scenario, task_demand=50.0, num_jobs=20, num_batches=2, seed=1
            ),
            "open-system",
        )
        assert result.num_jobs == 20
        # Two sources with zero think time: at any instant at most 2 jobs run.
        events = sorted(
            [(t, 1) for t in result.start_times]
            + [(t, -1) for t in result.end_times],
            key=lambda pair: (pair[0], pair[1]),
        )
        level = 0
        for _, delta in events:
            level += delta
            assert level <= 2

    def test_zero_think_time_matches_closed_system_bitwise(self):
        """A 1-source closed loop with zero think time is the closed system:
        jobs run back to back, so the event-driven backend's job times are
        reproduced bitwise."""
        owner = OwnerSpec(demand=10.0, utilization=0.1)
        spec = JobArrivalSpec.closed_loop(
            (JobClassSpec.closed("loop", width=4, population=1,
                                 think_time=0.0,
                                 think_time_kind="deterministic"),),
            warmup_fraction=0.0,
        )
        scenario = ScenarioSpec.homogeneous(4, owner, arrivals=spec)
        open_result = run_simulation(
            SimulationConfig.from_scenario(
                scenario, task_demand=50.0, num_jobs=30, num_batches=4, seed=9
            ),
            "open-system",
        )
        closed_result = run_simulation(
            SimulationConfig.from_scenario(
                ScenarioSpec.homogeneous(4, owner),
                task_demand=50.0, num_jobs=30, num_batches=4, seed=9,
            ),
            "event-driven",
        )
        np.testing.assert_array_equal(
            open_result.end_times - open_result.start_times,
            closed_result.job_times,
        )
        assert np.all(open_result.wait_times == 0.0)

    def test_mixed_open_and_closed_classes(self):
        classes = (
            JobClassSpec("stream", width=2, weight=1.0),
            JobClassSpec.closed("users", width=4, population=2,
                                think_time=500.0),
        )
        config = _classed_config(classes, rate=0.002, num_jobs=60)
        result = run_simulation(config, "open-system")
        ids = result.class_ids
        assert result.num_jobs == 60
        assert np.sum(ids == 0.0) > 0 and np.sum(ids == 1.0) > 0
        per_class = result.class_metrics()
        assert set(per_class) == {"stream", "users"}

    def test_think_time_spaces_submissions(self):
        spec = JobArrivalSpec.closed_loop(
            (JobClassSpec.closed("users", width=8, population=1,
                                 think_time=1000.0,
                                 think_time_kind="deterministic"),),
            warmup_fraction=0.0,
        )
        scenario = ScenarioSpec.homogeneous(8, OwnerSpec.idle(), arrivals=spec)
        result = run_simulation(
            SimulationConfig.from_scenario(
                scenario, task_demand=50.0, num_jobs=5, num_batches=2, seed=2
            ),
            "open-system",
        )
        # Deterministic 1000-unit think between completions; service is 50.
        np.testing.assert_allclose(np.diff(result.arrival_times), 1050.0)
        assert np.all(result.wait_times == 0.0)


class TestNewResponseMetrics:
    def _result(self):
        config = SimulationConfig.from_scenario(
            ScenarioSpec.homogeneous(
                4,
                OwnerSpec(demand=10.0, utilization=0.1),
                arrivals=JobArrivalSpec.poisson(rate=0.002),
            ),
            task_demand=50.0, num_jobs=100, num_batches=4, seed=7,
        )
        return run_simulation(config, "open-system")

    def test_percentile_ordering(self):
        result = self._result()
        assert (
            result.mean_response_time
            <= result.p95_response_time
            <= result.p99_response_time
            <= result.max_response_time
        )
        assert result.max_response_time == pytest.approx(
            float(np.max(result.steady_response_times))
        )

    def test_metrics_include_new_keys(self):
        metrics = self._result().metrics()
        for key in ("p99_response_time", "max_response_time",
                    "admission_preemptions"):
            assert key in metrics

    def test_summary_mentions_p99(self):
        assert "p99=" in self._result().summary()

    def test_class_metrics_empty_for_classless(self):
        assert self._result().class_metrics() == {}


class TestSchemaFourCache:
    def test_cache_version_bumped(self):
        # 4 introduced the admission fields; 5 added trace-driven owners and
        # the backend-owned NPZ layouts; 6 canonicalized the mode so
        # event-kernel results alias the oracle fingerprints; 7 walks the
        # payload off the spec dataclasses; 8 stamps each entry with the
        # CRC-32 of its bytes.  Pinned exactly: changing the
        # fingerprint payload without bumping the schema must fail here, so
        # stale entries can never silently replay.
        assert CACHE_VERSION == 8

    def test_admission_fields_enter_fingerprint(self):
        base = _classed_config((JobClassSpec("narrow", width=2),))
        wider = _classed_config((JobClassSpec("narrow", width=3),))
        priority = _classed_config(
            (JobClassSpec("narrow", width=2),), admission_policy="priority"
        )
        preemptive = _classed_config(
            (JobClassSpec("narrow", width=2),),
            admission_policy="priority",
            admission_kwargs={"preemptive": 1.0},
        )
        prints = {
            config_fingerprint(cfg, "open-system")
            for cfg in (base, wider, priority, preemptive)
        }
        assert len(prints) == 4

    def test_schema3_payload_never_replays(self):
        """A digest computed under the schema-3 payload (no admission fields)
        can never equal a schema-4 digest for the same point."""
        import hashlib
        import json

        config = _classed_config((JobClassSpec("narrow", width=2),))
        scenario = config.effective_scenario
        legacy_payload = {
            "schema": 3,
            "mode": "open-system",
            "workstations": int(config.workstations),
            "task_demand": float(config.task_demand),
            "num_jobs": int(config.num_jobs),
            "num_batches": int(config.num_batches),
            "confidence": float(config.confidence),
            "seed": int(config.seed),
            "policy": str(scenario.policy),
        }
        legacy = hashlib.sha256(
            json.dumps(legacy_payload, sort_keys=True).encode()
        ).hexdigest()
        assert config_fingerprint(config, "open-system") != legacy

    def test_space_shared_round_trip(self, tmp_path):
        classes = (
            JobClassSpec("narrow", width=2, weight=0.6),
            JobClassSpec("wide", width=8, weight=0.4, priority=2),
        )
        config = _classed_config(
            classes, admission_policy="priority",
            admission_kwargs={"preemptive": 1.0}, num_jobs=50,
        )
        result = run_simulation(config, "open-system")
        cache = ResultCache(tmp_path)
        cache.store(config, "open-system", result)
        loaded = cache.load(config, "open-system")
        assert isinstance(loaded, OpenSystemResult)
        np.testing.assert_array_equal(loaded.end_times, result.end_times)
        np.testing.assert_array_equal(loaded.widths, result.widths)
        np.testing.assert_array_equal(
            loaded.class_ids, result.class_ids
        )
        np.testing.assert_array_equal(loaded.restarts, result.restarts)
        assert loaded.class_metrics() == result.class_metrics()
        assert loaded.metrics() == result.metrics()


class TestAdmissionSweepGrid:
    def test_shape_and_mode(self):
        configs = build_grid(
            "admission-sweep",
            workstation_counts=(8,),
            utilizations=(0.1,),
            job_widths=(2, 4),
            admission_policies=("fcfs", "priority"),
            num_jobs=20,
        )
        assert len(configs) == 4
        assert grid_mode("admission-sweep") == "open-system"
        for config in configs:
            spec = config.scenario.arrivals
            assert spec.is_space_shared
            assert [c.name for c in spec.job_classes] == ["narrow", "wide"]
            assert spec.job_classes[1].width == 8

    def test_oversized_widths_skipped_and_empty_grid_rejected(self):
        configs = build_grid(
            "admission-sweep",
            workstation_counts=(4, 8),
            utilizations=(0.1,),
            job_widths=(6,),
            admission_policies=("fcfs",),
            num_jobs=20,
        )
        assert {c.workstations for c in configs} == {8}
        with pytest.raises(ValueError, match="empty"):
            build_grid(
                "admission-sweep",
                workstation_counts=(4,),
                job_widths=(6,),
                num_jobs=20,
            )

    def test_unknown_admission_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown admission policy"):
            build_grid(
                "admission-sweep", admission_policies=("lottery",), num_jobs=20
            )

    def test_axes_only_on_admission_grid(self):
        with pytest.raises(ValueError, match="job-width axis"):
            build_grid("fig01", job_widths=(2,))
        with pytest.raises(ValueError, match="admission-policy axis"):
            build_grid("arrival-sweep", admission_policies=("fcfs",))

    def test_unstable_rates_rejected(self):
        with pytest.raises(ValueError, match="stable"):
            build_grid("admission-sweep", arrival_rates=(1.2,), num_jobs=20)

    def test_sweep_replays_from_cache(self, tmp_path):
        configs = build_grid(
            "admission-sweep",
            workstation_counts=(8,),
            utilizations=(0.1,),
            job_widths=(2,),
            admission_policies=("fcfs", "easy-backfill"),
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
            assert a.class_metrics() == b.class_metrics()


class TestAdmissionExperiments:
    def test_admission_registered(self):
        assert "admission" in EXPERIMENTS
        assert EXPERIMENTS["admission"].kind == "queueing"
        assert "open-system-response" in EXPERIMENTS
        assert EXPERIMENTS["open-system-response"].kind == "figure"

    def test_admission_experiment_rows(self):
        rows = admission_experiment(
            workstation_counts=(8,),
            job_widths=(2,),
            admission_policies=("fcfs", "easy-backfill"),
            num_jobs=60,
            num_batches=4,
        )
        assert len(rows) == 2
        for row in rows:
            assert isinstance(row, QueueingRow)
            assert "narrow_mean_response" in row.metrics
            assert "wide_mean_response" in row.metrics
            assert "p99_response_time" in row.metrics
            assert row.parameters["narrow_width"] == 2.0
        assert {"fcfs", "easy-backfill"} == {
            row.label.split("adm=")[1] for row in rows
        }

    def test_admission_width_registered(self):
        assert "admission-width" in EXPERIMENTS
        assert EXPERIMENTS["admission-width"].kind == "figure"

    def test_admission_width_curves_figure(self):
        from repro.experiments.open_system import admission_width_curves

        figure = admission_width_curves(
            workstations=8,
            job_widths=(2, 4),
            admission_policies=("fcfs", "priority"),
            num_jobs=60,
            num_batches=4,
        )
        assert isinstance(figure, FigureResult)
        assert set(figure.series) == {"fcfs", "priority"}
        for x, y in figure.series.values():
            np.testing.assert_array_equal(x, [2.0, 4.0])
            assert y.shape == (2,) and np.all(np.isfinite(y)) and np.all(y > 0)
        rows = figure.metadata["rows"]
        assert len(rows) == 4
        assert all("narrow_mean_response" in row for row in rows)

    def test_response_time_curves_figure(self):
        figure = response_time_curves(
            workstations=4,
            arrival_rates=(0.3, 0.6),
            policies=("static", "self-scheduling"),
            num_jobs=40,
            num_batches=4,
        )
        assert isinstance(figure, FigureResult)
        assert set(figure.series) == {"static", "self-scheduling"}
        for x, y in figure.series.values():
            assert x.shape == (2,) and y.shape == (2,)
            # More load -> slower responses.
            assert y[1] > y[0]
        assert len(figure.metadata["rows"]) == 4


class TestAdmissionCLI:
    def test_admission_sweep_end_to_end_with_cache(self, tmp_path, capsys):
        args = [
            "sweep", "admission-sweep",
            "--workstations", "8",
            "--utilizations", "0.1",
            "--job-widths", "2",
            "--admission-policies", "fcfs,priority",
            "--num-jobs", "30",
            "--jobs", "1",
            "--cache-dir", str(tmp_path),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "(2 simulated, 0 cached)" in out
        assert "adm=fcfs" in out and "adm=priority" in out
        assert main(args) == 0
        assert "(0 simulated, 2 cached)" in capsys.readouterr().out

    def test_flags_rejected_on_other_grids(self, capsys):
        assert main(["sweep", "fig01", "--job-widths", "2"]) == 2
        assert "job-width axis" in capsys.readouterr().err
        assert main(["sweep", "arrival-sweep", "--admission-policies", "fcfs"]) == 2
        assert "admission-policy axis" in capsys.readouterr().err

    def test_experiments_listed(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "admission" in out and "open-system-response" in out
