"""Simulation-vs-analysis validation (Section 2.2 of the paper).

The paper validates its analysis by duplicating the Figure-1 experiment in a
CSIM simulation with 20 batches of 1000 samples and 90% confidence intervals,
finding the two "indistinguishable".  :func:`run_simulation_validation`
repeats that study with the reproduction's simulators and reports, for every
(W, U) point, the analytic and simulated job times, the CI and whether the
analytic value lies inside the simulation's confidence interval.

The points are the registered ``validation`` grid
(:func:`repro.engine.build_grid`, J = 1000), executed through the sweep
engine (:class:`repro.engine.SweepRunner`): pass ``jobs`` to fan the points
out over worker processes and ``cache_dir`` to replay previously simulated
points from disk.  Per-point seeds derive from the grid coordinates, so the
results are identical for any ``jobs`` value and equal to a ``sweep
validation`` run of the same points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.analytical import evaluate_inputs
from ..engine import SweepRunner, build_grid

__all__ = ["ValidationPoint", "run_simulation_validation", "agreement_summary"]


@dataclass(frozen=True)
class ValidationPoint:
    """One (W, U) cell of the simulation-validation study."""

    workstations: int
    utilization: float
    task_demand: float
    analytic_job_time: float
    simulated_job_time: float
    ci_half_width: float
    relative_error: float
    analytic_within_ci: bool

    def as_dict(self) -> dict[str, float]:
        return {
            "workstations": float(self.workstations),
            "utilization": self.utilization,
            "task_demand": self.task_demand,
            "analytic_job_time": self.analytic_job_time,
            "simulated_job_time": self.simulated_job_time,
            "ci_half_width": self.ci_half_width,
            "relative_error": self.relative_error,
            "analytic_within_ci": float(self.analytic_within_ci),
        }


def run_simulation_validation(
    workstation_counts: Sequence[int] | None = None,
    utilizations: Sequence[float] | None = None,
    owner_demand: float = 10.0,
    num_jobs: int = 20_000,
    num_batches: int = 20,
    confidence: float = 0.90,
    mode: str = "monte-carlo",
    seed: int = 0,
    jobs: int | None = 1,
    cache_dir: str | None = None,
) -> list[ValidationPoint]:
    """Reproduce the Section-2.2 validation over a grid of (W, U) points.

    The defaults use the paper's Figure-1 parameters and its batch-means setup
    (20 batches x 1000 samples = 20 000 job completions per point) with the
    fast Monte-Carlo back-end; an axis left ``None`` keeps the ``validation``
    grid's W or U values; pass ``mode="discrete-time"`` for the literal
    unit-by-unit walk (much slower, statistically identical).  ``jobs`` and
    ``cache_dir`` control the sweep engine (worker processes / on-disk result
    replay) without affecting any point's samples.
    """
    configs = build_grid(
        "validation",
        num_jobs=num_jobs,
        owner_demand=owner_demand,
        num_batches=num_batches,
        confidence=confidence,
        seed=seed,
        workstation_counts=workstation_counts,
        utilizations=utilizations,
    )
    outcome = SweepRunner(jobs=jobs, cache=cache_dir).run(configs, mode=mode)

    points: list[ValidationPoint] = []
    for config, result in zip(configs, outcome):
        analytic = evaluate_inputs(config.model_inputs)
        interval = result.job_time_interval.interval
        rel_error = (
            result.mean_job_time - analytic.expected_job_time
        ) / analytic.expected_job_time
        points.append(
            ValidationPoint(
                workstations=config.workstations,
                utilization=config.nominal_owner_utilization,
                task_demand=config.task_demand,
                analytic_job_time=analytic.expected_job_time,
                simulated_job_time=result.mean_job_time,
                ci_half_width=interval.half_width,
                relative_error=rel_error,
                analytic_within_ci=interval.contains(analytic.expected_job_time),
            )
        )
    return points


def agreement_summary(points: Sequence[ValidationPoint]) -> dict[str, float]:
    """Aggregate agreement statistics over a validation run."""
    if not points:
        raise ValueError("no validation points supplied")
    rel_errors = np.array([abs(p.relative_error) for p in points])
    within = np.array([p.analytic_within_ci for p in points])
    return {
        "points": float(len(points)),
        "max_abs_relative_error": float(rel_errors.max()),
        "mean_abs_relative_error": float(rel_errors.mean()),
        "fraction_within_ci": float(within.mean()),
    }
