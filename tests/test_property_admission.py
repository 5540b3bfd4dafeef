"""Property-based tests for the admission & space-sharing subsystem.

Hypothesis drives randomized job-class mixes (widths, priorities, open and
closed-loop sources), admission policies and owner loads through the full
open-system simulator, then replays the admission controller's audit log to
check the subsystem's invariants:

1. **No bilocation** — at no instant do two admitted jobs hold the same
   station, and every admission hands out exactly the requested width.
2. **Bounded width** — the total occupied width never exceeds ``W``.
3. **Work conservation** — at the end of every event instant, jobs never wait
   while the cluster sits completely idle (any validated width fits an empty
   cluster, so the head must have been admitted).
4. **Priority order** — under the priority policy, a job is never admitted
   while a strictly more important job is waiting.
5. **Completion** — every arrival eventually completes with
   ``arrival <= start <= end``, even under preemptive kill-and-requeue.
"""
# simlint: ignore-file[SL004] - unit tests drive the concrete backend directly

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ADMISSION_POLICY_NAMES,
    OpenSystemSimulator,
    SimulationConfig,
)
from repro.core import JobArrivalSpec, JobClassSpec, OwnerSpec, ScenarioSpec


@st.composite
def _admission_cases(draw):
    workstations = draw(st.integers(min_value=2, max_value=8))
    num_classes = draw(st.integers(min_value=1, max_value=3))
    classes = []
    for index in range(num_classes):
        width = draw(st.integers(min_value=1, max_value=workstations))
        priority = draw(st.integers(min_value=0, max_value=3))
        closed = draw(st.booleans()) if index > 0 else False
        if closed:
            classes.append(
                JobClassSpec.closed(
                    f"c{index}",
                    width,
                    priority=priority,
                    population=draw(st.integers(min_value=1, max_value=3)),
                    think_time=draw(st.sampled_from([0.0, 50.0, 400.0])),
                    think_time_kind="deterministic",
                )
            )
        else:
            classes.append(
                JobClassSpec(
                    f"c{index}",
                    width=width,
                    priority=priority,
                    weight=draw(st.sampled_from([0.5, 1.0, 2.0])),
                )
            )
    policy = draw(st.sampled_from(ADMISSION_POLICY_NAMES))
    kwargs = {}
    if policy == "priority":
        kwargs["preemptive"] = float(draw(st.booleans()))
    burst = draw(st.booleans())
    utilization = draw(st.sampled_from([0.0, 0.1, 0.3]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    num_jobs = draw(st.integers(min_value=8, max_value=30))
    return classes, policy, kwargs, burst, utilization, seed, num_jobs


def _run_case(case):
    classes, policy, kwargs, burst, utilization, seed, num_jobs = case
    open_classes = [c for c in classes if not c.is_closed]
    spec_kwargs = dict(
        job_classes=tuple(classes),
        admission_policy=policy,
        admission_kwargs=kwargs,
        warmup_fraction=0.0,
    )
    if not open_classes:
        arrivals = JobArrivalSpec.closed_loop(**spec_kwargs)
    elif burst:
        arrivals = JobArrivalSpec.from_trace((40.0, 0.0, 0.0), **spec_kwargs)
    else:
        arrivals = JobArrivalSpec.poisson(rate=0.01, **spec_kwargs)
    workstations = max(c.width for c in classes)
    workstations = max(
        workstations, 2
    )  # keep at least two stations so subsets exist
    scenario = ScenarioSpec.homogeneous(
        workstations,
        OwnerSpec(demand=10.0, utilization=utilization),
        arrivals=arrivals,
    )
    config = SimulationConfig.from_scenario(
        scenario,
        task_demand=40.0,
        num_jobs=num_jobs,
        num_batches=2,
        seed=seed,
    )
    simulator = OpenSystemSimulator(config)
    result = simulator.run()
    return result, simulator.last_controller, workstations


class TestAdmissionInvariants:
    @settings(max_examples=25, deadline=None)
    @given(case=_admission_cases())
    def test_no_station_bilocation_and_bounded_width(self, case):
        _, controller, workstations = _run_case(case)
        held: dict[int, tuple[int, ...]] = {}
        admissions = 0
        for event in controller.log:
            if event.kind == "admit":
                admissions += 1
                assert len(event.stations) == event.width
                assert len(set(event.stations)) == event.width
                for job_id, stations in held.items():
                    assert not set(stations) & set(event.stations), (
                        f"job {event.job_id} admitted onto stations already "
                        f"held by job {job_id}"
                    )
                held[event.job_id] = event.stations
                occupied = sum(len(s) for s in held.values())
                assert occupied <= workstations
            elif event.kind in ("release", "preempt"):
                assert event.job_id in held
                del held[event.job_id]
        assert admissions > 0
        assert not held, "some admitted job never released its stations"

    @settings(max_examples=25, deadline=None)
    @given(case=_admission_cases())
    def test_work_conservation_while_queue_nonempty(self, case):
        _, controller, _ = _run_case(case)
        log = controller.log
        waiting: set[int] = set()
        running: set[int] = set()
        for index, event in enumerate(log):
            if event.kind == "arrive":
                waiting.add(event.job_id)
            elif event.kind == "admit":
                waiting.discard(event.job_id)
                running.add(event.job_id)
            elif event.kind == "release":
                running.discard(event.job_id)
            elif event.kind == "preempt":
                running.discard(event.job_id)
            # Check at instant boundaries: transient states *within* one
            # dispatch (e.g. between a release and the follow-up admit) are
            # legitimate, but once the simulation moves to a new time every
            # waiting job must coexist with at least one running job.
            is_boundary = (
                index + 1 == len(log) or log[index + 1].time != event.time
            )
            if is_boundary and waiting:
                assert running, (
                    f"at t={event.time} jobs {waiting} wait on an idle cluster"
                )

    @settings(max_examples=25, deadline=None)
    @given(case=_admission_cases())
    def test_every_job_completes(self, case):
        result, _, _ = _run_case(case)
        assert result.num_jobs == case[6]
        assert np.all(np.isfinite(result.start_times))
        assert np.all(np.isfinite(result.end_times))
        assert np.all(result.start_times >= result.arrival_times - 1e-9)
        assert np.all(result.end_times > result.start_times)
        # Widths reported per job match the class widths.
        classes = case[0]
        for class_id, width in zip(result.class_ids, result.widths):
            assert width == float(classes[int(class_id)].width)

    @settings(max_examples=25, deadline=None)
    @given(case=_admission_cases())
    def test_priority_order_respected_at_admission(self, case):
        classes, policy, kwargs, *_ = case
        if policy != "priority":
            policy = "priority"
            case = (classes, policy, {}, *case[3:])
        _, controller, _ = _run_case(case)
        waiting: dict[int, int] = {}
        for event in controller.log:
            if event.kind == "arrive":
                waiting[event.job_id] = event.priority
            elif event.kind == "admit":
                waiting.pop(event.job_id)
                if waiting:
                    assert event.priority >= max(waiting.values()), (
                        f"job {event.job_id} (priority {event.priority}) "
                        "admitted while a more important job waited"
                    )

    @settings(max_examples=15, deadline=None)
    @given(case=_admission_cases())
    def test_preempted_jobs_requeue_and_finish(self, case):
        classes, _, _, burst, utilization, seed, num_jobs = case
        # Force the preemptive priority policy on the drawn class mix.
        case = (classes, "priority", {"preemptive": 1.0}, burst, utilization,
                seed, num_jobs)
        result, controller, _ = _run_case(case)
        preempts = [e for e in controller.log if e.kind == "preempt"]
        restarts = float(np.sum(result.restarts))
        assert restarts == float(len(preempts))
        assert np.all(np.isfinite(result.end_times))
