"""Parallel-job descriptions for the cluster simulator.

The paper's job is perfectly balanced (``W`` identical tasks of demand
``J / W``); :func:`balanced_tasks` produces that split.  The simulator also
supports mild load imbalance (:func:`imbalanced_tasks`) because the paper
explicitly lists "parallel task times are deterministic / perfectly balanced"
among the optimistic assumptions — the imbalance ablation quantifies how much
that assumption matters.

:class:`TaskResult` and :class:`JobResult` are the simulator's output records;
``JobResult.response_time`` is the time until the *last* task finishes, i.e.
the quantity ``E_j`` estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "balanced_tasks",
    "imbalanced_tasks",
    "TaskResult",
    "JobResult",
    "OpenJobRecord",
]


def balanced_tasks(total_demand: float, workstations: int) -> np.ndarray:
    """Perfectly balanced split of ``total_demand`` over ``workstations`` tasks."""
    if total_demand <= 0:
        raise ValueError(f"total_demand must be positive, got {total_demand!r}")
    if workstations < 1:
        raise ValueError(f"workstations must be >= 1, got {workstations!r}")
    return np.full(workstations, total_demand / workstations, dtype=np.float64)


def imbalanced_tasks(
    total_demand: float,
    workstations: int,
    imbalance: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Randomly imbalanced split preserving the total demand.

    ``imbalance`` is the maximum relative deviation of a task from the perfect
    share: each task draws a weight uniformly from
    ``[1 - imbalance, 1 + imbalance]`` and the weights are renormalised so the
    demands still sum to ``total_demand``.  ``imbalance = 0`` reduces to the
    balanced split.
    """
    if not 0.0 <= imbalance < 1.0:
        raise ValueError(f"imbalance must be in [0, 1), got {imbalance!r}")
    base = balanced_tasks(total_demand, workstations)
    if imbalance == 0.0 or workstations == 1:
        return base
    weights = rng.uniform(1.0 - imbalance, 1.0 + imbalance, size=workstations)
    weights *= workstations / weights.sum()
    return base * weights


@dataclass(frozen=True)
class TaskResult:
    """Outcome of one parallel task on one workstation."""

    workstation: int
    demand: float
    start_time: float
    end_time: float
    preemptions: int

    @property
    def execution_time(self) -> float:
        """Wall-clock task execution time (the paper's per-task metric)."""
        return self.end_time - self.start_time

    @property
    def interference_delay(self) -> float:
        """Delay attributable to owner interference."""
        return self.execution_time - self.demand


@dataclass(frozen=True)
class JobResult:
    """Outcome of one parallel job (a set of tasks started together)."""

    job_id: int
    start_time: float
    tasks: tuple[TaskResult, ...]

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError("a job must have at least one task")

    @property
    def end_time(self) -> float:
        return max(task.end_time for task in self.tasks)

    @property
    def response_time(self) -> float:
        """Time until the last task completed — the job completion time."""
        return self.end_time - self.start_time

    @property
    def max_task_time(self) -> float:
        """Maximum task execution time (the metric of the paper's Figure 10)."""
        return max(task.execution_time for task in self.tasks)

    @property
    def mean_task_time(self) -> float:
        return float(np.mean([task.execution_time for task in self.tasks]))

    @property
    def total_demand(self) -> float:
        return float(np.sum([task.demand for task in self.tasks]))

    @property
    def total_preemptions(self) -> int:
        return int(np.sum([task.preemptions for task in self.tasks]))

    @property
    def workstations(self) -> int:
        return len(self.tasks)

    def speedup_versus(self, single_node_time: float) -> float:
        """Speedup of this job relative to a given single-node execution time."""
        if single_node_time <= 0:
            raise ValueError(
                f"single_node_time must be positive, got {single_node_time!r}"
            )
        if self.max_task_time <= 0:
            raise ValueError("job has non-positive max task time")
        return single_node_time / self.max_task_time


@dataclass
class OpenJobRecord:
    """One job of an open-system (job-stream) run, from arrival to completion.

    Unlike :class:`JobResult` — which describes a closed-system job whose
    service starts the moment the previous job finishes — an open-system job
    *arrives*, possibly waits in the admission queue behind other jobs, is
    dispatched onto the cluster, and completes.  The queueing metrics of the
    open-system simulator (response time, waiting time, slowdown) all derive
    from this record.
    """

    job_id: int
    arrival_time: float
    demand: float
    start_time: float = float("nan")
    end_time: float = float("nan")
    tasks: tuple[TaskResult, ...] = ()
    #: Stations this job occupies (all ``W`` in a classless stream).
    width: int = 0
    #: Index into the arrival spec's job classes (0 for classless streams).
    class_id: int = 0
    #: Admission priority (higher = more important; classless streams use 0).
    priority: int = 0
    #: Times this job was evicted by preemptive admission and restarted.
    admission_preemptions: int = 0

    @property
    def completed(self) -> bool:
        return not np.isnan(self.end_time)

    @property
    def wait_time(self) -> float:
        """Time spent queued before the cluster started the job."""
        return self.start_time - self.arrival_time

    @property
    def service_time(self) -> float:
        """Makespan of the job on the cluster (the closed-system job time)."""
        return self.end_time - self.start_time

    @property
    def response_time(self) -> float:
        """Arrival-to-completion time — the open system's primary metric."""
        return self.end_time - self.arrival_time

    def slowdown(self, ideal_service_time: float) -> float:
        """Response time relative to the job's ideal (uncontended) makespan."""
        if ideal_service_time <= 0:
            raise ValueError(
                f"ideal_service_time must be positive, got {ideal_service_time!r}"
            )
        return self.response_time / ideal_service_time
