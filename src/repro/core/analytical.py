"""The analytical model of Section 2 of Leutenegger & Sun (1993).

The model is a discrete-time abstraction of one perfectly parallel job running
on ``W`` non-dedicated workstations:

* the job has total demand ``J`` split into ``W`` equal tasks of demand
  ``T = J / W`` (one per workstation);
* after every unit of parallel work the workstation owner requests the CPU
  with probability ``P`` (geometric think time, mean ``1/P``);
* an owner process runs for ``O`` units with preemptive priority, after which
  the parallel task is guaranteed at least one unit of work before the owner
  may request again.

Consequently the number of interruptions per task is ``Binomial(T, P)`` and

* ``task time = T + n * O``                                      (Eq. 1)
* ``E_t = T + O * E[n] = T + O * sum_i i * Bin(T, i, P)``        (Eq. 3)
* ``E_j = T + O * E[max over W i.i.d. n]``                       (Eqs. 4-7)
* ``U = O / (O + 1/P)``                                          (Eq. 8)

This module exposes both a low-level functional API operating on raw
``(T, W, O, P)`` values and a higher-level API operating on
:class:`~repro.core.params.JobSpec` / :class:`~repro.core.params.SystemSpec`
pairs, which also handles fractional per-task demands via the job's
:class:`~repro.core.params.TaskRounding` policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .distributions import (
    binomial_cdf,
    binomial_pmf,
    max_of_iid_mean,
    max_of_iid_pmf,
)
from .params import (
    JobSpec,
    ModelInputs,
    OwnerSpec,
    SystemSpec,
    TaskRounding,
    request_probability_to_utilization,
)

__all__ = [
    "expected_task_time",
    "expected_job_time",
    "task_time_distribution",
    "job_time_distribution",
    "job_time_quantile",
    "job_time_variance",
    "job_time_survival",
    "worst_case_task_time",
    "ModelEvaluation",
    "evaluate_inputs",
    "evaluate",
    "sweep_workstations",
    "sweep_utilizations",
]


def _check_raw_inputs(task_demand: float, owner_demand: float, prob: float) -> None:
    if task_demand <= 0:
        raise ValueError(f"task_demand must be positive, got {task_demand!r}")
    if owner_demand <= 0:
        raise ValueError(f"owner_demand must be positive, got {owner_demand!r}")
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"request probability must be in [0, 1], got {prob!r}")


def expected_task_time(
    task_demand: int | float,
    owner_demand: float,
    request_probability: float,
) -> float:
    """Expected completion time of one parallel task, ``E_t`` (Eq. 3).

    ``E_t = T + O * E[Binomial(T, P)] = T + O * T * P``.  The closed form is
    exact, so fractional ``T`` is accepted directly (the binomial mean extends
    linearly in the trial count).

    >>> expected_task_time(100, 10.0, 0.0)
    100.0
    >>> expected_task_time(100, 10.0, 0.01)
    110.0
    """
    _check_raw_inputs(task_demand, owner_demand, request_probability)
    return float(task_demand) + owner_demand * float(task_demand) * request_probability


def worst_case_task_time(
    task_demand: int | float, owner_demand: float
) -> float:
    """Deterministic upper bound ``T + T * O`` on task completion time.

    The model guarantees a task completes in at most ``T + (T x O)`` units
    because at most one owner process can arrive per unit of parallel work.
    """
    if task_demand <= 0:
        raise ValueError(f"task_demand must be positive, got {task_demand!r}")
    if owner_demand <= 0:
        raise ValueError(f"owner_demand must be positive, got {owner_demand!r}")
    return float(task_demand) + float(task_demand) * owner_demand


def task_time_distribution(
    task_demand: int,
    owner_demand: float,
    request_probability: float,
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Distribution of a single task's completion time.

    Returns ``(support, pmf)`` where ``support[k] = T + k * O`` for
    ``k = 0 .. T`` and ``pmf[k] = Bin(T, k, P)``.
    """
    _check_raw_inputs(task_demand, owner_demand, request_probability)
    trials = int(task_demand)
    if trials != task_demand:
        raise ValueError(
            "task_time_distribution requires an integer task_demand; "
            f"got {task_demand!r} (use the JobSpec rounding policy)"
        )
    pmf = binomial_pmf(trials, request_probability)
    interruptions = np.arange(trials + 1, dtype=np.float64)
    support = trials + interruptions * owner_demand
    return support, pmf


def job_time_distribution(
    task_demand: int,
    workstations: int,
    owner_demand: float,
    request_probability: float,
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Distribution of the job completion time (max over tasks).

    Returns ``(support, pmf)`` where ``support[n] = T + n * O`` and ``pmf[n]``
    is ``Max[W, n]`` of Eq. 6: the probability that the most-interrupted task
    suffered exactly ``n`` owner interruptions.
    """
    _check_raw_inputs(task_demand, owner_demand, request_probability)
    if workstations < 1:
        raise ValueError(f"workstations must be >= 1, got {workstations!r}")
    trials = int(task_demand)
    if trials != task_demand:
        raise ValueError(
            "job_time_distribution requires an integer task_demand; "
            f"got {task_demand!r} (use the JobSpec rounding policy)"
        )
    cdf = binomial_cdf(trials, request_probability)
    max_pmf = max_of_iid_pmf(cdf, workstations)
    interruptions = np.arange(trials + 1, dtype=np.float64)
    support = trials + interruptions * owner_demand
    return support, max_pmf


def _expected_job_time_integer(
    task_demand: int,
    workstations: int,
    owner_demand: float,
    request_probability: float,
) -> float:
    """``E_j`` for an integer task demand (Eq. 7)."""
    trials = int(task_demand)
    if trials == 0:
        return 0.0
    cdf = binomial_cdf(trials, request_probability)
    expected_max_interruptions = max_of_iid_mean(cdf, workstations)
    return trials + owner_demand * expected_max_interruptions


def expected_job_time(
    task_demand: int | float,
    workstations: int,
    owner_demand: float,
    request_probability: float,
    *,
    interpolate: bool = True,
) -> float:
    """Expected job completion time ``E_j`` (Eq. 7).

    ``E_j = T + O * E[max_{w <= W} n_w]`` where the ``n_w`` are i.i.d.
    ``Binomial(T, P)``.

    Parameters
    ----------
    task_demand:
        Per-task demand ``T``.  May be fractional when ``interpolate`` is
        true, in which case the result is the linear blend of the evaluations
        at ``floor(T)`` and ``ceil(T)``.
    workstations:
        Number of tasks / workstations ``W``.
    owner_demand:
        Owner process demand ``O``.
    request_probability:
        Per-unit owner request probability ``P``.
    interpolate:
        Whether fractional ``T`` is allowed (blended); if false a fractional
        ``T`` raises ``ValueError``.
    """
    _check_raw_inputs(task_demand, owner_demand, request_probability)
    if workstations < 1:
        raise ValueError(f"workstations must be >= 1, got {workstations!r}")
    if request_probability == 0.0:
        return float(task_demand)
    lower = math.floor(task_demand)
    upper = math.ceil(task_demand)
    if lower == upper or lower == task_demand:
        return _expected_job_time_integer(
            int(task_demand), workstations, owner_demand, request_probability
        )
    if not interpolate:
        raise ValueError(
            f"task_demand {task_demand!r} is not an integer and interpolation "
            "is disabled"
        )
    lower = max(1, lower)
    frac = task_demand - math.floor(task_demand)
    low_val = _expected_job_time_integer(
        lower, workstations, owner_demand, request_probability
    )
    high_val = _expected_job_time_integer(
        upper, workstations, owner_demand, request_probability
    )
    return (1.0 - frac) * low_val + frac * high_val


def job_time_variance(
    task_demand: int,
    workstations: int,
    owner_demand: float,
    request_probability: float,
) -> float:
    """Variance of the job completion time.

    Follows directly from the max-order-statistic distribution (Eqs. 4-6); the
    paper only reports expectations, but the variance quantifies how much the
    "one slow workstation" effect spreads job times — useful when sizing
    deadlines rather than averages.
    """
    support, pmf = job_time_distribution(
        task_demand, workstations, owner_demand, request_probability
    )
    mean = float(np.dot(support, pmf))
    return float(np.dot((support - mean) ** 2, pmf))


def job_time_survival(
    task_demand: int,
    workstations: int,
    owner_demand: float,
    request_probability: float,
    deadline: float,
) -> float:
    """Probability that the job is still running at ``deadline``.

    ``P(job time > deadline)`` — the tail question a user with a deadline
    actually asks.  Deadlines below the interference-free time ``T`` return
    1.0; deadlines above the worst case ``T + T*O`` return 0.0.
    """
    support, pmf = job_time_distribution(
        task_demand, workstations, owner_demand, request_probability
    )
    return float(pmf[support > deadline].sum())


def job_time_quantile(
    task_demand: int,
    workstations: int,
    owner_demand: float,
    request_probability: float,
    quantile: float,
) -> float:
    """Quantile of the job completion-time distribution.

    Useful for tail-latency style questions the paper does not plot but that
    follow directly from the same distribution (e.g. "what job time is
    exceeded only 5% of the time?").
    """
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {quantile!r}")
    support, pmf = job_time_distribution(
        task_demand, workstations, owner_demand, request_probability
    )
    cdf = np.cumsum(pmf)
    idx = int(np.searchsorted(cdf, quantile, side="left"))
    idx = min(idx, len(support) - 1)
    return float(support[idx])


@dataclass(frozen=True)
class ModelEvaluation:
    """Result of evaluating the analytical model at one parameter point.

    Carries the resolved inputs alongside the two expectations of the paper
    (``E_t`` and ``E_j``); derived metrics (speedup, efficiency, weighted
    variants) live in :mod:`repro.core.metrics` and take this object as input.
    """

    job_demand: float
    task_demand: float
    workstations: int
    owner_demand: float
    request_probability: float
    utilization: float
    expected_task_time: float
    expected_job_time: float

    @property
    def task_ratio(self) -> float:
        """Task ratio ``T / O`` — the paper's headline feasibility metric."""
        return self.task_demand / self.owner_demand

    @property
    def interference_overhead(self) -> float:
        """Expected extra job time caused by owner interference, ``E_j - T``."""
        return self.expected_job_time - self.task_demand

    @property
    def mean_interruptions_per_task(self) -> float:
        """Expected number of owner interruptions of a single task, ``T * P``."""
        return self.task_demand * self.request_probability


def evaluate_inputs(inputs: ModelInputs, *, job_demand: float | None = None) -> ModelEvaluation:
    """Evaluate the model at fully resolved raw inputs.

    ``job_demand`` defaults to ``T * W``; callers resolving a
    :class:`~repro.core.params.JobSpec` pass the original ``J`` so the speedup
    metrics use the true serial demand rather than the rounded one.
    """
    et = expected_task_time(
        inputs.task_demand, inputs.owner_demand, inputs.request_probability
    )
    ej = expected_job_time(
        inputs.task_demand,
        inputs.workstations,
        inputs.owner_demand,
        inputs.request_probability,
    )
    return ModelEvaluation(
        job_demand=float(job_demand if job_demand is not None else inputs.job_demand),
        task_demand=inputs.task_demand,
        workstations=inputs.workstations,
        owner_demand=inputs.owner_demand,
        request_probability=inputs.request_probability,
        utilization=inputs.utilization,
        expected_task_time=et,
        expected_job_time=ej,
    )


def evaluate(job: JobSpec, system: SystemSpec) -> ModelEvaluation:
    """Evaluate the analytical model for a job on a system.

    This is the main entry point used by the experiment harness: it resolves
    the per-task demand according to the job's rounding policy (including the
    smooth ``INTERPOLATE`` mode) and returns the two expectations of Section 2.
    """
    inputs = ModelInputs.from_specs(job, system)
    owner = system.owner
    assert owner.request_probability is not None
    if job.rounding is TaskRounding.INTERPOLATE:
        et = expected_task_time(
            inputs.task_demand, owner.demand, owner.request_probability
        )
        ej = expected_job_time(
            inputs.task_demand,
            system.workstations,
            owner.demand,
            owner.request_probability,
            interpolate=True,
        )
        return ModelEvaluation(
            job_demand=job.total_demand,
            task_demand=inputs.task_demand,
            workstations=system.workstations,
            owner_demand=owner.demand,
            request_probability=owner.request_probability,
            utilization=request_probability_to_utilization(
                owner.request_probability, owner.demand
            ),
            expected_task_time=et,
            expected_job_time=ej,
        )
    return evaluate_inputs(inputs, job_demand=job.total_demand)


def sweep_workstations(
    job: JobSpec,
    owner: OwnerSpec,
    workstation_counts: Sequence[int],
) -> list[ModelEvaluation]:
    """Evaluate the model for each system size in ``workstation_counts``.

    This is the sweep behind Figures 1-6 and 9 of the paper.
    """
    results: list[ModelEvaluation] = []
    for w in workstation_counts:
        system = SystemSpec(workstations=int(w), owner=owner)
        results.append(evaluate(job, system))
    return results


def sweep_utilizations(
    job: JobSpec,
    system: SystemSpec,
    utilizations: Sequence[float],
) -> list[ModelEvaluation]:
    """Evaluate the model for each owner utilization in ``utilizations``."""
    results: list[ModelEvaluation] = []
    for u in utilizations:
        owner = system.owner.with_utilization(float(u))
        results.append(evaluate(job, system.with_owner(owner)))
    return results
