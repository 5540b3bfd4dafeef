"""Runners reproducing every figure of the paper.

Each ``run_figXX`` function regenerates the data behind one figure of
Leutenegger & Sun (1993) and returns a :class:`FigureResult` whose series can
be printed as tables (:mod:`repro.experiments.report`), compared against the
paper's quoted anchor values, or plotted by downstream users.

Figures 1-9 are pure evaluations of the analytical model; Figures 10 and 11
re-run the experimental validation on the simulated PVM substrate with the
owner utilization calibrated to the paper's measured 3%.  The validation
measurements are independent grid points executed via the sweep engine's
:func:`~repro.engine.parallel_map` — pass ``jobs`` to :func:`run_fig10` /
:func:`run_fig11` to fan the replications out over worker processes
(per-point seeds keep the measurements identical for any worker count).
Simulation counterparts of the figure grids are available through
``repro-experiments sweep`` (see :mod:`repro.engine.grids`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..core.analytical import evaluate, sweep_workstations
from ..core.feasibility import feasibility_frontier, weighted_efficiency_at_task_ratio
from ..core.metrics import compute_metrics
from ..core.params import JobSpec, OwnerSpec, SystemSpec, TaskRounding
from ..core.scaling import response_time_inflation, scaled_sweep
from ..engine import PAPER_UTILIZATIONS, parallel_map
from ..pvm import VirtualMachine, run_local_computation
from ..stats import summarize_replications
from ..workload import ValidationGrid

__all__ = [
    "PAPER_UTILIZATIONS",
    "DEFAULT_OWNER_DEMAND",
    "FigureResult",
    "run_fig01",
    "run_fig02",
    "run_fig03",
    "run_fig04",
    "run_fig05",
    "run_fig06",
    "run_fig07",
    "run_fig08",
    "run_fig09",
    "run_fig10",
    "run_fig11",
    "run_conclusions_thresholds",
    "run_conclusions_scaled",
]

#: Owner-process demand used throughout the analysis section.
DEFAULT_OWNER_DEMAND = 10.0

#: Workstation counts for the x-axis of Figures 1-6 and 9 (1..100).
DEFAULT_WORKSTATION_COUNTS: tuple[int, ...] = tuple(range(1, 101))

#: Task ratios for the x-axis of Figures 7-8.
DEFAULT_TASK_RATIOS: tuple[int, ...] = tuple(range(1, 61))


@dataclass(frozen=True)
class FigureResult:
    """Regenerated data for one figure: named series over a common x-axis."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    series: dict[str, tuple[np.ndarray, np.ndarray]]
    metadata: dict[str, object] = field(default_factory=dict)

    def series_names(self) -> list[str]:
        return list(self.series)

    def get(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Return the ``(x, y)`` arrays of one series."""
        try:
            return self.series[name]
        except KeyError:
            raise KeyError(
                f"figure {self.figure_id} has no series {name!r}; "
                f"available: {self.series_names()}"
            ) from None

    def value_at(self, name: str, x: float) -> float:
        """Value of a series at a given x (exact match required)."""
        xs, ys = self.get(name)
        matches = np.nonzero(np.isclose(xs, x))[0]
        if matches.size == 0:
            raise ValueError(f"series {name!r} has no point at x={x!r}")
        return float(ys[matches[0]])


def _util_label(utilization: float) -> str:
    return f"util={utilization:g}"


def _fixed_size_sweep(
    job_demand: float,
    metric: str,
    workstation_counts: Sequence[int],
    utilizations: Sequence[float],
    owner_demand: float,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Shared machinery of Figures 1-6: one metric vs W, one curve per utilization."""
    job = JobSpec(total_demand=job_demand, rounding=TaskRounding.INTERPOLATE)
    series: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    xs = np.asarray(list(workstation_counts), dtype=np.float64)
    # The "perfect" reference curve of the speedup figures.
    for utilization in utilizations:
        owner = OwnerSpec(demand=owner_demand, utilization=float(utilization))
        evaluations = sweep_workstations(job, owner, list(workstation_counts))
        ys = np.array(
            [compute_metrics(e).as_dict()[metric] for e in evaluations],
            dtype=np.float64,
        )
        series[_util_label(utilization)] = (xs.copy(), ys)
    return series


def run_fig01(
    job_demand: float = 1000.0,
    workstation_counts: Sequence[int] = DEFAULT_WORKSTATION_COUNTS,
    utilizations: Sequence[float] = PAPER_UTILIZATIONS,
    owner_demand: float = DEFAULT_OWNER_DEMAND,
) -> FigureResult:
    """Figure 1: speedup vs number of workstations, ``J = 1000``."""
    series = _fixed_size_sweep(
        job_demand, "speedup", workstation_counts, utilizations, owner_demand
    )
    xs = np.asarray(list(workstation_counts), dtype=np.float64)
    series["perfect"] = (xs.copy(), xs.copy())
    return FigureResult(
        figure_id="fig01",
        title=f"Speedup, J = {job_demand:g} units",
        x_label="Number of Processors",
        y_label="Speedup",
        series=series,
        metadata={"job_demand": job_demand, "owner_demand": owner_demand},
    )


def run_fig02(
    job_demand: float = 1000.0,
    workstation_counts: Sequence[int] = DEFAULT_WORKSTATION_COUNTS,
    utilizations: Sequence[float] = PAPER_UTILIZATIONS,
    owner_demand: float = DEFAULT_OWNER_DEMAND,
) -> FigureResult:
    """Figure 2: efficiency vs number of workstations, ``J = 1000``."""
    series = _fixed_size_sweep(
        job_demand, "efficiency", workstation_counts, utilizations, owner_demand
    )
    return FigureResult(
        figure_id="fig02",
        title=f"Efficiency, J = {job_demand:g} units",
        x_label="Number of Processors",
        y_label="Efficiency",
        series=series,
        metadata={"job_demand": job_demand, "owner_demand": owner_demand},
    )


def run_fig03(
    job_demand: float = 1000.0,
    workstation_counts: Sequence[int] = DEFAULT_WORKSTATION_COUNTS,
    utilizations: Sequence[float] = PAPER_UTILIZATIONS,
    owner_demand: float = DEFAULT_OWNER_DEMAND,
) -> FigureResult:
    """Figure 3: weighted speedup vs number of workstations, ``J = 1000``."""
    series = _fixed_size_sweep(
        job_demand, "weighted_speedup", workstation_counts, utilizations, owner_demand
    )
    xs = np.asarray(list(workstation_counts), dtype=np.float64)
    series["perfect"] = (xs.copy(), xs.copy())
    return FigureResult(
        figure_id="fig03",
        title=f"Weighted Speedup, J = {job_demand:g} units",
        x_label="Number of Processors",
        y_label="Weighted Speedup",
        series=series,
        metadata={"job_demand": job_demand, "owner_demand": owner_demand},
    )


def run_fig04(
    job_demand: float = 1000.0,
    workstation_counts: Sequence[int] = DEFAULT_WORKSTATION_COUNTS,
    utilizations: Sequence[float] = PAPER_UTILIZATIONS,
    owner_demand: float = DEFAULT_OWNER_DEMAND,
) -> FigureResult:
    """Figure 4: weighted efficiency vs number of workstations, ``J = 1000``."""
    series = _fixed_size_sweep(
        job_demand,
        "weighted_efficiency",
        workstation_counts,
        utilizations,
        owner_demand,
    )
    return FigureResult(
        figure_id="fig04",
        title=f"Weighted Efficiency, J = {job_demand:g} units",
        x_label="Number of Processors",
        y_label="Weighted Efficiency",
        series=series,
        metadata={"job_demand": job_demand, "owner_demand": owner_demand},
    )


def run_fig05(
    job_demand: float = 10_000.0,
    workstation_counts: Sequence[int] = DEFAULT_WORKSTATION_COUNTS,
    utilizations: Sequence[float] = PAPER_UTILIZATIONS,
    owner_demand: float = DEFAULT_OWNER_DEMAND,
) -> FigureResult:
    """Figure 5: weighted speedup vs number of workstations, ``J = 10,000``."""
    result = run_fig03(job_demand, workstation_counts, utilizations, owner_demand)
    return FigureResult(
        figure_id="fig05",
        title=f"Weighted Speedup, J = {job_demand:g} units",
        x_label=result.x_label,
        y_label=result.y_label,
        series=result.series,
        metadata={"job_demand": job_demand, "owner_demand": owner_demand},
    )


def run_fig06(
    job_demand: float = 10_000.0,
    workstation_counts: Sequence[int] = DEFAULT_WORKSTATION_COUNTS,
    utilizations: Sequence[float] = PAPER_UTILIZATIONS,
    owner_demand: float = DEFAULT_OWNER_DEMAND,
) -> FigureResult:
    """Figure 6: weighted efficiency vs number of workstations, ``J = 10,000``."""
    result = run_fig04(job_demand, workstation_counts, utilizations, owner_demand)
    return FigureResult(
        figure_id="fig06",
        title=f"Weighted Efficiency, J = {job_demand:g} units",
        x_label=result.x_label,
        y_label=result.y_label,
        series=result.series,
        metadata={"job_demand": job_demand, "owner_demand": owner_demand},
    )


def run_fig07(
    workstations: int = 60,
    task_ratios: Sequence[int] = DEFAULT_TASK_RATIOS,
    utilizations: Sequence[float] = PAPER_UTILIZATIONS,
    owner_demand: float = DEFAULT_OWNER_DEMAND,
) -> FigureResult:
    """Figure 7: weighted efficiency vs task ratio at ``W = 60``."""
    xs = np.asarray(list(task_ratios), dtype=np.float64)
    series: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for utilization in utilizations:
        owner = OwnerSpec(demand=owner_demand, utilization=float(utilization))
        ys = np.array(
            [
                weighted_efficiency_at_task_ratio(float(r), workstations, owner)
                for r in task_ratios
            ],
            dtype=np.float64,
        )
        series[_util_label(utilization)] = (xs.copy(), ys)
    return FigureResult(
        figure_id="fig07",
        title=f"Effect of Task Ratio, {workstations} Workstations",
        x_label="Task Ratio",
        y_label="Weighted Efficiency",
        series=series,
        metadata={"workstations": workstations, "owner_demand": owner_demand},
    )


def run_fig08(
    workstation_counts: Sequence[int] = (2, 4, 8, 20, 60, 100),
    task_ratios: Sequence[int] = DEFAULT_TASK_RATIOS,
    utilization: float = 0.10,
    owner_demand: float = DEFAULT_OWNER_DEMAND,
) -> FigureResult:
    """Figure 8: weighted efficiency vs task ratio for several system sizes, ``U = 0.1``."""
    xs = np.asarray(list(task_ratios), dtype=np.float64)
    owner = OwnerSpec(demand=owner_demand, utilization=utilization)
    series: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for workstations in workstation_counts:
        ys = np.array(
            [
                weighted_efficiency_at_task_ratio(float(r), int(workstations), owner)
                for r in task_ratios
            ],
            dtype=np.float64,
        )
        series[f"numProc={int(workstations)}"] = (xs.copy(), ys)
    return FigureResult(
        figure_id="fig08",
        title="Effect of Task Ratio, Number Workstations Varied, Owner Utilization = 0.1",
        x_label="Task Ratio",
        y_label="Weighted Efficiency",
        series=series,
        metadata={"utilization": utilization, "owner_demand": owner_demand},
    )


def run_fig09(
    per_node_demand: float = 100.0,
    workstation_counts: Sequence[int] = DEFAULT_WORKSTATION_COUNTS,
    utilizations: Sequence[float] = PAPER_UTILIZATIONS,
    owner_demand: float = DEFAULT_OWNER_DEMAND,
) -> FigureResult:
    """Figure 9: scaled-problem job execution time vs number of workstations.

    Job demand is ``100 * W`` units, so every task keeps a demand of 100 units
    and the task ratio is fixed at 10.
    """
    xs = np.asarray(list(workstation_counts), dtype=np.float64)
    series: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for utilization in utilizations:
        owner = OwnerSpec(demand=owner_demand, utilization=float(utilization))
        evaluations = scaled_sweep(per_node_demand, list(workstation_counts), owner)
        ys = np.array([e.expected_job_time for e in evaluations], dtype=np.float64)
        series[_util_label(utilization)] = (xs.copy(), ys)
    return FigureResult(
        figure_id="fig09",
        title="Effect of Scaling Problem",
        x_label="Number of Processors",
        y_label="Execution Time",
        series=series,
        metadata={
            "per_node_demand": per_node_demand,
            "owner_demand": owner_demand,
            "task_ratio": per_node_demand / owner_demand,
        },
    )


def _measure_validation_point(
    payload: tuple[int, OwnerSpec, int, float]
) -> float:
    """One PVM validation measurement (top-level so worker processes can run it)."""
    workstations, owner, point_seed, job_demand = payload
    vm = VirtualMachine(
        num_hosts=workstations,
        owner=owner,
        seed=point_seed,
        spawn_overhead=0.0,
    )
    return run_local_computation(vm, job_demand=job_demand).max_task_time


def _run_validation_measurements(
    grid: ValidationGrid,
    seed: int,
    jobs: int | None = 1,
) -> dict[tuple[float, int], list[float]]:
    """Run the PVM local-computation experiment over the validation grid.

    Returns the per-(problem-minutes, workstations) list of measured maximum
    task execution times (in model units = simulated seconds), one entry per
    replication.  The grid cells are independent virtual machines with seeds
    fixed by their coordinates, so they are fanned out over ``jobs`` worker
    processes via the sweep engine without changing any measurement.
    """
    keys: list[tuple[float, int]] = []
    payloads: list[tuple[int, OwnerSpec, int, float]] = []
    for problem in grid.problems:
        for workstations in grid.workstation_counts:
            key = (problem.minutes, int(workstations))
            for replication in range(grid.replications):
                keys.append(key)
                payloads.append(
                    (
                        int(workstations),
                        grid.owner_spec,
                        seed + hash(key) % 100_000 + replication,
                        problem.total_demand_units,
                    )
                )
    times = parallel_map(_measure_validation_point, payloads, jobs=jobs)
    measurements: dict[tuple[float, int], list[float]] = {}
    for key, value in zip(keys, times):
        measurements.setdefault(key, []).append(value)
    return measurements


def run_fig10(
    grid: Optional[ValidationGrid] = None,
    seed: int = 1993,
    jobs: int | None = 1,
) -> FigureResult:
    """Figure 10: measured vs analytic maximum task execution time.

    The "measured" series come from the simulated PVM substrate (one curve per
    problem size, mean of the replications); the "analytic" series evaluate
    the model at the grid's owner utilization (3% in the paper).  ``jobs``
    fans the measurements out over worker processes.
    """
    if grid is None:
        grid = ValidationGrid()
    xs = np.asarray(list(grid.workstation_counts), dtype=np.float64)
    measurements = _run_validation_measurements(grid, seed, jobs=jobs)
    series: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    owner = grid.owner_spec
    for problem in grid.problems:
        measured = np.array(
            [
                summarize_replications(
                    f"{problem.name}-W{w}", measurements[(problem.minutes, int(w))]
                ).mean
                for w in grid.workstation_counts
            ],
            dtype=np.float64,
        )
        label = f"measured {problem.minutes:g}"
        series[label] = (xs.copy(), measured)
    for problem in grid.problems:
        job = problem.job_spec()
        analytic = np.array(
            [
                evaluate(job, SystemSpec(workstations=int(w), owner=owner)).expected_job_time
                for w in grid.workstation_counts
            ],
            dtype=np.float64,
        )
        series[f"analytic {problem.minutes:g}"] = (xs.copy(), analytic)
    return FigureResult(
        figure_id="fig10",
        title="Experimental Validation: Response Time",
        x_label="Number of Processors",
        y_label="Max Task Execution Time (seconds)",
        series=series,
        metadata={
            "owner_utilization": grid.owner_utilization,
            "replications": grid.replications,
            "problem_minutes": tuple(grid.problem_minutes),
        },
    )


def run_fig11(
    grid: Optional[ValidationGrid] = None,
    seed: int = 1993,
    jobs: int | None = 1,
) -> FigureResult:
    """Figure 11: measured speedups of the validation experiment.

    Speedup is defined as in Section 4: the ratio of the maximum task
    execution time on one workstation to the maximum task execution time on
    ``W`` workstations, per problem size.  ``jobs`` fans the measurements out
    over worker processes.
    """
    if grid is None:
        grid = ValidationGrid()
    if 1 not in {int(w) for w in grid.workstation_counts}:
        raise ValueError(
            "the speedup figure needs the single-workstation measurement; "
            "include 1 in grid.workstation_counts"
        )
    xs = np.asarray(list(grid.workstation_counts), dtype=np.float64)
    measurements = _run_validation_measurements(grid, seed, jobs=jobs)
    series: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for problem in grid.problems:
        base = float(
            np.mean(measurements[(problem.minutes, 1)])
        )
        speedups = np.array(
            [
                base / float(np.mean(measurements[(problem.minutes, int(w))]))
                for w in grid.workstation_counts
            ],
            dtype=np.float64,
        )
        series[f"demand = {problem.minutes:g}"] = (xs.copy(), speedups)
    series["perfect"] = (xs.copy(), xs.copy())
    return FigureResult(
        figure_id="fig11",
        title="Experimental Validation: Speedups",
        x_label="Number of Workstations",
        y_label="Speedup",
        series=series,
        metadata={
            "owner_utilization": grid.owner_utilization,
            "replications": grid.replications,
        },
    )


def run_conclusions_thresholds(
    utilizations: Sequence[float] = (0.05, 0.10, 0.20),
    workstations: int = 60,
    owner_demand: float = DEFAULT_OWNER_DEMAND,
    target: float = 0.80,
) -> FigureResult:
    """Section-5 finding: minimum task ratio for 80% weighted efficiency.

    The paper quotes thresholds of >= 8, >= 13 and >= 20 for utilizations of
    5%, 10% and 20% (read off the Figure-7 curves at ``W = 60``).
    """
    frontier = feasibility_frontier(
        utilizations, workstations=workstations, owner_demand=owner_demand,
        target_weighted_efficiency=target,
    )
    xs = np.asarray(sorted(frontier), dtype=np.float64)
    ys = np.asarray([frontier[u] for u in sorted(frontier)], dtype=np.float64)
    return FigureResult(
        figure_id="conclusions-thresholds",
        title=f"Minimum task ratio for {target:.0%} weighted efficiency, W = {workstations}",
        x_label="Owner Utilization",
        y_label="Minimum Task Ratio",
        series={"min task ratio": (xs, ys)},
        metadata={
            "workstations": workstations,
            "target": target,
            "paper_values": {0.05: 8.0, 0.10: 13.0, 0.20: 20.0},
        },
    )


def run_conclusions_scaled(
    per_node_demand: float = 100.0,
    workstations: int = 100,
    utilizations: Sequence[float] = PAPER_UTILIZATIONS,
    owner_demand: float = DEFAULT_OWNER_DEMAND,
) -> FigureResult:
    """Section-3.2/5 finding: scaled-problem response-time inflation at 100 nodes.

    The paper quotes increases of 14, 30, 44 and 71 % for owner utilizations
    of 1, 5, 10 and 20 %.
    """
    xs = np.asarray(list(utilizations), dtype=np.float64)
    ys = np.array(
        [
            response_time_inflation(
                per_node_demand,
                workstations,
                OwnerSpec(demand=owner_demand, utilization=float(u)),
            )
            for u in utilizations
        ],
        dtype=np.float64,
    )
    return FigureResult(
        figure_id="conclusions-scaled",
        title=f"Scaled-problem response-time inflation at W = {workstations}",
        x_label="Owner Utilization",
        y_label="Relative response-time increase",
        series={"inflation": (xs, ys)},
        metadata={
            "per_node_demand": per_node_demand,
            "workstations": workstations,
            "paper_values": {0.01: 0.14, 0.05: 0.30, 0.10: 0.44, 0.20: 0.71},
        },
    )
