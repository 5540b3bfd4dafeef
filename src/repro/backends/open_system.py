"""Open-system backend: the event-driven cluster under a stream of jobs.

Jobs arrive per the scenario's :class:`~repro.core.params.JobArrivalSpec`,
queue for admission and compete for the same non-dedicated stations.  Where
the closed back-ends estimate standalone job time, this one estimates
steady-state queueing metrics — response time, slowdown, throughput,
utilization — with warmup truncation and batch means.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..cluster.job import OpenJobRecord
from ..cluster.policies import make_policy
from ..core.params import JobArrivalSpec, ScenarioSpec
from ..desim import Environment, Interrupt, Resource, make_variate
from ..stats import (
    BatchMeansResult,
    steady_state_interval,
    warmup_truncate,
)
from .base import SimulationConfig, SimulationResult, register_backend
from .event_driven import EventDrivenClusterSimulator, _split_demands

__all__ = ["OpenSystemResult", "OpenSystemSimulator", "result_class"]


@dataclass(frozen=True)
class OpenSystemResult:
    """Steady-state queueing estimates of one open-system (job-stream) run.

    The raw per-job records are kept as parallel arrays in *arrival order*;
    they are the point's cache entry, in declaration order.  Every queueing
    metric is derived, with response times taken in *completion* order and
    the warmup prefix truncated per the arrival spec before steady-state
    statistics are formed.

    ``widths``, ``class_ids`` and ``restarts`` hold each job's station
    width, job class and admission-preemption count; in a classless stream
    every job spans the whole cluster as class 0 and is never restarted.
    """

    config: SimulationConfig
    mode: str
    arrival_times: np.ndarray
    start_times: np.ndarray
    end_times: np.ndarray
    demands: np.ndarray
    widths: np.ndarray
    class_ids: np.ndarray
    restarts: np.ndarray
    measured_owner_utilization: float | None = None

    @property
    def arrival_spec(self) -> JobArrivalSpec:
        spec = self.config.effective_scenario.arrivals
        assert spec is not None
        return spec

    @property
    def num_jobs(self) -> int:
        return int(self.arrival_times.size)

    @cached_property
    def completion_order(self) -> np.ndarray:
        """Indices of the jobs sorted by completion time (stable for ties)."""
        return np.argsort(self.end_times, kind="stable")

    @cached_property
    def response_times(self) -> np.ndarray:
        """Arrival-to-completion times, in completion order."""
        order = self.completion_order
        return (self.end_times - self.arrival_times)[order]

    @cached_property
    def wait_times(self) -> np.ndarray:
        """Admission-queue waiting times, in completion order."""
        order = self.completion_order
        return (self.start_times - self.arrival_times)[order]

    @cached_property
    def service_times(self) -> np.ndarray:
        """On-cluster makespans (the closed-system job times), in completion order."""
        order = self.completion_order
        return (self.end_times - self.start_times)[order]

    @cached_property
    def slowdowns(self) -> np.ndarray:
        """Per-job slowdown: response time over the ideal dedicated makespan.

        The ideal reference is ``demand / width`` — the job's makespan on its
        *own* stations, dedicated and perfectly balanced (``width = W`` for
        classless streams) — so a slowdown of 1 means the job saw neither
        queueing delay nor owner interference.
        """
        order = self.completion_order
        ideal = (self.demands / self.widths)[order]
        return (self.end_times - self.arrival_times)[order] / ideal

    @cached_property
    def warmup_jobs(self) -> int:
        """How many earliest-completed jobs the warmup truncation discards."""
        return self.num_jobs - warmup_truncate(
            self.response_times, self.arrival_spec.warmup_fraction
        ).size

    @cached_property
    def steady_response_times(self) -> np.ndarray:
        """Post-warmup response times (the batch-means input)."""
        return warmup_truncate(
            self.response_times, self.arrival_spec.warmup_fraction
        )

    @cached_property
    def response_time_interval(self) -> BatchMeansResult | None:
        """Batch-means CI over the post-warmup response times.

        ``None`` when fewer post-warmup completions than batches exist (e.g.
        the single-arrival reduction scenario).
        """
        return steady_state_interval(
            self.response_times,
            self.arrival_spec.warmup_fraction,
            self.config.num_batches,
            self.config.confidence,
        )

    # -- scalar queueing metrics ------------------------------------------

    @property
    def mean_response_time(self) -> float:
        return float(np.mean(self.steady_response_times))

    @property
    def p95_response_time(self) -> float:
        return float(np.percentile(self.steady_response_times, 95.0))

    @property
    def p99_response_time(self) -> float:
        return float(np.percentile(self.steady_response_times, 99.0))

    @property
    def max_response_time(self) -> float:
        return float(np.max(self.steady_response_times))

    @property
    def total_admission_preemptions(self) -> float:
        """Total kill-and-requeue evictions across the run (0 unless the
        priority admission policy runs preemptively)."""
        return float(np.sum(self.restarts))

    @property
    def mean_wait_time(self) -> float:
        return float(
            np.mean(
                warmup_truncate(self.wait_times, self.arrival_spec.warmup_fraction)
            )
        )

    @property
    def mean_slowdown(self) -> float:
        return float(
            np.mean(
                warmup_truncate(self.slowdowns, self.arrival_spec.warmup_fraction)
            )
        )

    @property
    def makespan(self) -> float:
        """Time at which the last job completed."""
        return float(np.max(self.end_times))

    @property
    def throughput(self) -> float:
        """Completed jobs per unit time over the whole run."""
        return self.num_jobs / self.makespan

    @property
    def parallel_utilization(self) -> float:
        """Fraction of total cluster capacity spent on parallel work."""
        return float(np.sum(self.demands)) / (
            self.config.workstations * self.makespan
        )

    def metrics(self) -> dict[str, float]:
        """The steady-state queueing metrics as a flat mapping (for reports)."""
        interval = self.response_time_interval
        return {
            "mean_response_time": self.mean_response_time,
            "p95_response_time": self.p95_response_time,
            "p99_response_time": self.p99_response_time,
            "max_response_time": self.max_response_time,
            "mean_wait_time": self.mean_wait_time,
            "mean_slowdown": self.mean_slowdown,
            "throughput": self.throughput,
            "parallel_utilization": self.parallel_utilization,
            "response_ci_half_width": (
                float("nan") if interval is None else interval.half_width
            ),
            "completed_jobs": float(self.num_jobs),
            "warmup_jobs": float(self.warmup_jobs),
            "admission_preemptions": self.total_admission_preemptions,
        }

    def class_metrics(self) -> dict[str, dict[str, float]]:
        """Steady-state metrics split by job class (space-shared streams only).

        Post-warmup jobs are grouped by the arrival spec's class order; a
        class with no post-warmup completion reports NaN means.  Classless
        streams return an empty mapping.
        """
        spec = self.arrival_spec
        if not spec.job_classes:
            return {}
        order = self.completion_order
        steady = slice(self.warmup_jobs, None)
        ids = self.class_ids[order][steady]
        responses = self.response_times[steady]
        waits = self.wait_times[steady]
        slowdowns = self.slowdowns[steady]
        out: dict[str, dict[str, float]] = {}
        for index, job_class in enumerate(spec.job_classes):
            mask = ids == float(index)
            count = int(np.sum(mask))
            if count == 0:
                stats = {
                    "mean_response_time": float("nan"),
                    "p95_response_time": float("nan"),
                    "mean_wait_time": float("nan"),
                    "mean_slowdown": float("nan"),
                }
            else:
                stats = {
                    "mean_response_time": float(np.mean(responses[mask])),
                    "p95_response_time": float(
                        np.percentile(responses[mask], 95.0)
                    ),
                    "mean_wait_time": float(np.mean(waits[mask])),
                    "mean_slowdown": float(np.mean(slowdowns[mask])),
                }
            stats["completed_jobs"] = float(count)
            stats["width"] = float(job_class.width)
            out[job_class.name] = stats
        return out

    def summary(self) -> str:
        cfg = self.config
        spec = self.arrival_spec
        interval = self.response_time_interval
        ci = (
            ""
            if interval is None
            else (
                f" ± {interval.half_width:.2f} "
                f"({interval.interval.confidence:.0%} CI)"
            )
        )
        extras = ""
        if spec.job_classes:
            widths = "/".join(str(c.width) for c in spec.job_classes)
            extras = f" adm={spec.admission_policy} w={widths}"
        return (
            f"[{self.mode}] W={cfg.workstations} T={cfg.task_demand} "
            f"U={cfg.nominal_owner_utilization:.3f} "
            f"{spec.kind}@{spec.mean_rate:.4g}{extras}: "
            f"R≈{self.mean_response_time:.2f}{ci}, "
            f"p95={self.p95_response_time:.2f}, "
            f"p99={self.p99_response_time:.2f}, "
            f"slowdown≈{self.mean_slowdown:.2f}, "
            f"X={self.throughput:.4g}, util={self.parallel_utilization:.3f} "
            f"({self.num_jobs} jobs, {self.warmup_jobs} warmup)"
        )


def result_class(config: SimulationConfig) -> type[SimulationResult | OpenSystemResult]:
    """The result class a point of ``config`` yields, on any backend."""
    return OpenSystemResult if config.effective_scenario.is_open else SimulationResult


@register_backend
class OpenSystemSimulator(EventDrivenClusterSimulator):
    """Event-driven cluster fed by a stream of competing parallel jobs.

    Jobs arrive per the scenario's :class:`~repro.core.params.JobArrivalSpec`,
    wait in an admission queue and run under the scenario's scheduling policy
    on the same non-dedicated workstations as the closed-system backend.

    A *classless* spec is the PR-3 stream: FIFO admission of whole-cluster
    jobs, at most ``max_concurrent_jobs`` at once.  A spec with
    :class:`~repro.core.params.JobClassSpec` entries instead routes through
    the admission subsystem (:mod:`repro.cluster.admission`): each job
    requests its class's width, is granted an exclusive station *subset* by
    the configured admission policy (FCFS, EASY backfilling, priority with
    optional preemptive kill-and-requeue), and closed-loop classes are driven
    by think-time sources rather than the interarrival process.

    The owner and placement random streams are created in the exact order of
    the closed backend (and both admission paths share the same dispatch
    mechanics), so a single job arriving at time 0 reproduces the closed
    system's first job bitwise, and a single full-width FCFS class reproduces
    the classless stream bitwise — the reductions the regression tests pin.
    """

    name = "open-system"

    @classmethod
    def check(cls, config: SimulationConfig) -> None:
        spec = config.effective_scenario.arrivals
        if spec is None:
            raise ValueError(
                "the open-system backend needs a scenario with a job-arrival "
                "process; set ScenarioSpec.arrivals (e.g. via "
                "JobArrivalSpec.poisson) or use a closed backend"
            )
        for job_class in spec.job_classes:
            if job_class.width > config.workstations:
                raise ValueError(
                    f"job class {job_class.name!r} requests width "
                    f"{job_class.width} on a {config.workstations}-station cluster"
                )

    def run(self) -> OpenSystemResult:  # type: ignore[override]
        """Simulate ``num_jobs`` arrivals and return the queueing estimates."""
        cfg = self.config
        scenario = cfg.effective_scenario
        spec = scenario.arrivals
        assert spec is not None  # check() refused a closed scenario
        if spec.is_space_shared:
            return self._run_space_shared(cfg, scenario, spec)
        policy = make_policy(scenario.policy, **dict(scenario.policy_kwargs))
        env = Environment()
        # Stream creation order matches the closed event-driven backend
        # (owners, then placement) so the single-arrival reduction is bitwise.
        stations = self._build_cluster(env)
        placement_rng = self._streams.stream("placement")
        arrival_rng = self._streams.stream("arrivals")
        demand_rng = self._streams.stream("job-demands")
        demand_variate = make_variate(
            spec.demand_kind, cfg.job_demand, **dict(spec.demand_kwargs)
        )
        admission = Resource(env, capacity=spec.max_concurrent_jobs)

        records: list[OpenJobRecord] = []
        job_procs = []

        def run_one_job(record: OpenJobRecord):
            with admission.request() as req:
                yield req
                record.start_time = env.now
                demands = _split_demands(
                    record.demand, scenario, cfg.workstations, placement_rng
                )
                tasks = yield from policy.run_job(env, stations, demands)
                record.end_time = env.now
                record.tasks = tuple(tasks)

        def source():
            mean_gap = spec.mean_interarrival
            for job_id in range(cfg.num_jobs):
                gap = spec.interarrival(job_id)
                if gap is None:
                    gap = float(arrival_rng.exponential(mean_gap))
                yield env.timeout(gap)
                demand = float(demand_variate.sample(demand_rng))
                while demand <= 0.0:
                    demand = float(demand_variate.sample(demand_rng))
                record = OpenJobRecord(
                    job_id=job_id,
                    arrival_time=env.now,
                    demand=demand,
                    width=cfg.workstations,
                )
                records.append(record)
                job_procs.append(env.process(run_one_job(record)))

        source_proc = env.process(source())
        # Owners cycle forever: run until all arrivals are in, then drain the
        # in-flight jobs.
        env.run(until=source_proc)
        if job_procs:
            env.run(until=env.all_of(job_procs))
        return self._result(stations, records)

    def _result(self, stations, records: list[OpenJobRecord]) -> OpenSystemResult:
        """The result of a finished run: its jobs' records, in arrival order,
        as arrays, and the owners' measured utilization."""

        def column(name: str) -> np.ndarray:
            return np.array([getattr(r, name) for r in records], dtype=np.float64)

        return OpenSystemResult(
            config=self.config,
            mode=self.name,
            arrival_times=column("arrival_time"),
            start_times=column("start_time"),
            end_times=column("end_time"),
            demands=column("demand"),
            widths=column("width"),
            class_ids=column("class_id"),
            restarts=column("admission_preemptions"),
            measured_owner_utilization=float(
                np.mean([s.measured_owner_utilization() for s in stations])
            ),
        )

    def _run_space_shared(
        self, cfg: SimulationConfig, scenario: ScenarioSpec, spec: JobArrivalSpec
    ) -> OpenSystemResult:
        """Space-shared engine: moldable job classes under an admission policy.

        Structured exactly like the classless path (same stream-creation
        order, same synchronous admission dispatch, same per-job wrapper
        shape) so that a single full-width FCFS class is bitwise-identical to
        the classless stream; the extra streams (class mixing, think times)
        are created *after* the shared ones and a single-class mix draws
        nothing from them.
        """
        from ..cluster.admission import (
            AdmissionController,
            AdmissionPreemption,
            make_admission_policy,
        )

        classes = spec.job_classes
        policy = make_policy(scenario.policy, **dict(scenario.policy_kwargs))
        admission_policy = make_admission_policy(
            spec.admission_policy, **dict(spec.admission_kwargs)
        )
        env = Environment()
        # Stream creation order matches the classless path (owners, placement,
        # arrivals, job-demands) so the full-width FCFS reduction is bitwise.
        stations = self._build_cluster(env)
        placement_rng = self._streams.stream("placement")
        arrival_rng = self._streams.stream("arrivals")
        demand_rng = self._streams.stream("job-demands")
        class_rng = self._streams.stream("job-classes")
        think_rng = self._streams.stream("think-times")
        demand_variate = make_variate(
            spec.demand_kind, cfg.job_demand, **dict(spec.demand_kwargs)
        )
        mean_util = scenario.mean_utilization
        controller = AdmissionController(
            env,
            stations,
            admission_policy,
            estimate_service=lambda demand, width: demand
            / (width * (1.0 - mean_util)),
        )
        self.last_controller = controller

        records: list[OpenJobRecord] = []
        job_procs = []
        budget = cfg.num_jobs

        def sample_demand() -> float:
            demand = float(demand_variate.sample(demand_rng))
            while demand <= 0.0:
                demand = float(demand_variate.sample(demand_rng))
            return demand

        def submit(class_index: int):
            record = OpenJobRecord(
                job_id=len(records),
                arrival_time=env.now,
                demand=sample_demand(),
                width=classes[class_index].width,
                class_id=class_index,
                priority=classes[class_index].priority,
            )
            records.append(record)
            proc = env.process(run_one_job(record))
            job_procs.append(proc)
            return proc

        def run_one_job(record: OpenJobRecord):
            job_class = classes[record.class_id]
            while True:
                ticket = controller.request(
                    record,
                    width=job_class.width,
                    priority=job_class.priority,
                    class_id=record.class_id,
                )
                # The preemption guard spans the admission wait too: a job can
                # be evicted in the very instant between its admission and its
                # first resume (it is "running" to the controller but still
                # parked at the ticket event).
                try:
                    yield ticket.event
                    subset = [stations[index] for index in ticket.stations]
                    record.start_time = env.now
                    demands = _split_demands(
                        record.demand, scenario, job_class.width, placement_rng
                    )
                    tasks = yield from policy.run_job(env, subset, demands)
                except Interrupt as exc:
                    if isinstance(exc.cause, AdmissionPreemption):
                        # Evicted by a more important arrival: requeue with
                        # the full demand (restart semantics).
                        record.admission_preemptions += 1
                        continue
                    raise
                record.end_time = env.now
                record.tasks = tuple(tasks)
                controller.release(record)
                return

        open_indices = spec.open_class_indices
        open_index_array = np.array(open_indices, dtype=np.int64)
        weights = np.array(
            [classes[index].weight for index in open_indices], dtype=np.float64
        )
        if weights.size:
            weights /= weights.sum()

        def take_budget() -> bool:
            nonlocal budget
            if budget <= 0:
                return False
            budget -= 1
            return True

        def open_source():
            mean_gap = spec.mean_interarrival
            index = 0
            while take_budget():
                gap = spec.interarrival(index)
                if gap is None:
                    gap = float(arrival_rng.exponential(mean_gap))
                index += 1
                yield env.timeout(gap)
                if len(open_indices) == 1:
                    class_index = open_indices[0]
                else:
                    class_index = int(
                        class_rng.choice(open_index_array, p=weights)
                    )
                submit(class_index)

        def closed_source(class_index: int):
            job_class = classes[class_index]
            think_variate = make_variate(
                job_class.think_time_kind,
                job_class.think_time,
                **dict(job_class.think_time_kwargs),
            )
            while True:
                gap = float(think_variate.sample(think_rng))
                yield env.timeout(max(gap, 0.0))
                if not take_budget():
                    return
                yield submit(class_index)

        source_procs = []
        if open_indices:
            source_procs.append(env.process(open_source()))
        for class_index in spec.closed_class_indices:
            for _member in range(classes[class_index].population):
                source_procs.append(env.process(closed_source(class_index)))
        # Owners cycle forever: run until every source is done, then drain the
        # in-flight jobs (closed-loop sources drain their own jobs already).
        if len(source_procs) == 1:
            env.run(until=source_procs[0])
        elif source_procs:
            env.run(until=env.all_of(source_procs))
        if job_procs:
            env.run(until=env.all_of(job_procs))
        return self._result(stations, records)
