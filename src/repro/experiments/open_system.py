"""Open-system (job-stream) experiments: queueing metrics under contention.

The paper's feasibility argument is framed around one parallel job running
alone on the non-dedicated cluster.  Real clusters serve a *stream* of
competing parallel jobs, where the deciding metric is response time under
contention rather than standalone speedup (the framing of the gang-scheduling
and dynamic-coscheduling literature for networks of workstations).  Three
experiments build on the open-system backend:

``open_system_experiment``
    Sweeps a Poisson stream over the ``arrival-sweep`` grid and tabulates the
    steady-state queueing metrics — mean/p95/p99/max response time, slowdown,
    throughput and parallel utilization — one row per grid point.

``admission_experiment``
    Space-shares the cluster through the ``admission-sweep`` grid: a mix of
    narrow and full-width moldable job classes admitted by each policy of
    :mod:`repro.cluster.admission`, with the per-class means flattened into
    the row metrics so FCFS head-of-line blocking, EASY backfilling and
    preemptive priority can be compared directly.

``response_time_curves``
    The ROADMAP's "queueing figure": mean response time versus normalized
    arrival rate, one curve per task-scheduling policy, assembled from the
    same :class:`QueueingRow` machinery into a
    :class:`~repro.experiments.figures.FigureResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..backends import OpenSystemResult, SimulationConfig
from ..cluster.policies import POLICY_NAMES
from ..core.params import (
    JobArrivalSpec,
    OwnerSpec,
    ScenarioSpec,
    TaskRounding,
    split_job_demand,
)
from ..desim import StreamRegistry
from ..engine import SweepRunner, build_grid, saturation_rate

__all__ = [
    "QueueingRow",
    "open_system_experiment",
    "admission_experiment",
    "admission_width_curves",
    "response_time_curves",
]


@dataclass(frozen=True)
class QueueingRow:
    """One open-system grid point with its steady-state queueing metrics."""

    label: str
    parameters: dict[str, float]
    metrics: dict[str, float]

    def as_dict(self) -> dict[str, object]:
        return {"label": self.label, **self.parameters, **self.metrics}


def _queueing_row(
    result: OpenSystemResult,
    *,
    label_extra: str = "",
    parameters_extra: dict[str, float] | None = None,
    per_class: bool = False,
) -> QueueingRow:
    """Build one row from a completed open-system point.

    With ``per_class`` the per-class means are flattened into the metrics as
    ``<class>_mean_response`` / ``<class>_mean_slowdown`` keys.
    """
    cfg = result.config
    spec = result.arrival_spec
    metrics = result.metrics()
    if per_class:
        for name, stats in result.class_metrics().items():
            metrics[f"{name}_mean_response"] = stats["mean_response_time"]
            metrics[f"{name}_mean_slowdown"] = stats["mean_slowdown"]
    return QueueingRow(
        label=(
            f"W={cfg.workstations} "
            f"U={cfg.nominal_owner_utilization:g} "
            f"lambda={spec.mean_rate:.4g}{label_extra}"
        ),
        parameters={
            "workstations": float(cfg.workstations),
            "utilization": float(cfg.nominal_owner_utilization),
            "arrival_rate": float(spec.mean_rate),
            **(parameters_extra or {}),
        },
        metrics=metrics,
    )


def open_system_experiment(
    workstation_counts: Sequence[int] = (4, 8),
    utilizations: Sequence[float] = (0.10,),
    arrival_rates: Sequence[float] = (0.25, 0.5, 0.75),
    num_jobs: int = 400,
    num_batches: int = 10,
    seed: int = 0,
    jobs: int | None = 1,
) -> list[QueueingRow]:
    """Response time of a Poisson job stream vs normalized arrival rate.

    ``arrival_rates`` are fractions of each point's saturation throughput
    (see :func:`repro.engine.grids.build_grid`); as they approach 1 the
    admission queue grows and the mean response time inflates far beyond the
    standalone job time — the open-system cost the closed-system figures
    cannot show.  Points are independent simulations executed through the
    sweep engine (``jobs`` worker processes).
    """
    configs = build_grid(
        "arrival-sweep",
        workstation_counts=workstation_counts,
        utilizations=utilizations,
        arrival_rates=arrival_rates,
        num_jobs=num_jobs,
        num_batches=num_batches,
        seed=seed,
    )
    outcome = SweepRunner(jobs=jobs).run(configs, mode="open-system")
    rows: list[QueueingRow] = []
    for result in outcome:
        assert isinstance(result, OpenSystemResult)
        rows.append(_queueing_row(result))
    return rows


def admission_experiment(
    workstation_counts: Sequence[int] = (8,),
    utilizations: Sequence[float] = (0.10,),
    job_widths: Sequence[int] = (2, 4),
    admission_policies: Sequence[str] | None = None,
    arrival_rates: Sequence[float] = (0.5,),
    num_jobs: int = 300,
    num_batches: int = 10,
    seed: int = 0,
    jobs: int | None = 1,
) -> list[QueueingRow]:
    """Space-sharing table: moldable widths × admission policies.

    Each row is one ``admission-sweep`` point — a 75/25 mix of a narrow and a
    full-width (higher-priority) job class admitted by one policy — with the
    overall queueing metrics plus the per-class mean response/slowdown
    flattened in, so the head-of-line cost of FCFS and the recovery from
    backfilling or preemptive priority are read straight off the table.
    """
    configs = build_grid(
        "admission-sweep",
        workstation_counts=workstation_counts,
        utilizations=utilizations,
        job_widths=job_widths,
        admission_policies=admission_policies,
        arrival_rates=arrival_rates,
        num_jobs=num_jobs,
        num_batches=num_batches,
        seed=seed,
    )
    outcome = SweepRunner(jobs=jobs).run(configs, mode="open-system")
    rows: list[QueueingRow] = []
    for result in outcome:
        assert isinstance(result, OpenSystemResult)
        spec = result.arrival_spec
        narrow_width = spec.job_classes[0].width
        rows.append(
            _queueing_row(
                result,
                label_extra=(
                    f" w={narrow_width} adm={spec.admission_policy}"
                ),
                parameters_extra={"narrow_width": float(narrow_width)},
                per_class=True,
            )
        )
    return rows


def admission_width_curves(
    workstations: int = 8,
    utilization: float = 0.10,
    job_widths: Sequence[int] = (2, 3, 4, 6),
    admission_policies: Sequence[str] | None = None,
    arrival_rate: float = 0.5,
    num_jobs: int = 240,
    num_batches: int = 8,
    seed: int = 0,
    jobs: int | None = 1,
):
    """Per-class mean response time vs narrow width, one curve per policy.

    This is the ``admission-sweep`` grid promoted to a registered figure (the
    ROADMAP's "admission figures" item), the way ``open-system-response``
    renders the arrival sweep: each point streams the 75/25 narrow/full-width
    moldable mix at one fixed normalized arrival rate, and the figure plots
    the *narrow class's* mean response time against its width — the
    head-of-line cost FCFS pays as narrow jobs get wider, and how much of it
    EASY backfilling or preemptive priority recovers.  The full-width class's
    response and the overall mean ride along in the metadata rows.  Returns a
    :class:`~repro.experiments.figures.FigureResult`.
    """
    from .figures import FigureResult

    configs = build_grid(
        "admission-sweep",
        workstation_counts=(workstations,),
        utilizations=(utilization,),
        job_widths=job_widths,
        admission_policies=admission_policies,
        arrival_rates=(arrival_rate,),
        num_jobs=num_jobs,
        num_batches=num_batches,
        seed=seed,
    )
    outcome = SweepRunner(jobs=jobs).run(configs, mode="open-system")
    rows: list[QueueingRow] = []
    curves: dict[str, dict[int, float]] = {}
    for result in outcome:
        assert isinstance(result, OpenSystemResult)
        spec = result.arrival_spec
        narrow = spec.job_classes[0]
        per_class = result.class_metrics()
        rows.append(
            _queueing_row(
                result,
                label_extra=f" w={narrow.width} adm={spec.admission_policy}",
                parameters_extra={"narrow_width": float(narrow.width)},
                per_class=True,
            )
        )
        curves.setdefault(spec.admission_policy, {})[narrow.width] = per_class[
            narrow.name
        ]["mean_response_time"]
    series: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for policy, by_width in curves.items():
        widths = sorted(by_width)
        series[policy] = (
            np.asarray(widths, dtype=np.float64),
            np.asarray([by_width[width] for width in widths]),
        )
    return FigureResult(
        figure_id="admission-width",
        title=(
            "Narrow-class mean response time vs narrow width "
            f"(W={workstations}, U={utilization:g}, "
            f"rate={arrival_rate:g} of saturation)"
        ),
        x_label="narrow job width (stations)",
        y_label="narrow-class mean response time",
        series=series,
        metadata={
            "workstations": workstations,
            "utilization": utilization,
            "arrival_rate": arrival_rate,
            "num_jobs": num_jobs,
            "rows": [row.as_dict() for row in rows],
        },
    )


def response_time_curves(
    workstations: int = 8,
    utilization: float = 0.10,
    arrival_rates: Sequence[float] = (0.3, 0.5, 0.7, 0.85),
    policies: Sequence[str] = POLICY_NAMES,
    job_demand: float = 1000.0,
    num_jobs: int = 240,
    num_batches: int = 8,
    seed: int = 0,
    jobs: int | None = 1,
):
    """Mean response time vs normalized load, one curve per scheduling policy.

    This is the ``arrival-sweep`` grid promoted to a registered figure: the
    same homogeneous cluster and Poisson stream are run under each
    task-scheduling policy of :mod:`repro.cluster.policies`, so the figure
    shows whether dynamic scheduling (which shortens each job's makespan)
    also flattens the queueing curve as the system approaches saturation.
    Returns a :class:`~repro.experiments.figures.FigureResult`.
    """
    from .figures import FigureResult

    owner = OwnerSpec(demand=10.0, utilization=float(utilization))
    task_demand = split_job_demand(job_demand, workstations, TaskRounding.ROUND)
    saturation = saturation_rate(utilization, task_demand)
    streams = StreamRegistry(seed)
    rates = tuple(float(rate) for rate in arrival_rates)
    # One flat (policy x rate) grid through a single sweep, so the worker
    # pool parallelizes across the whole figure rather than one curve.
    points: list[tuple[str, float]] = [
        (str(policy), rate) for policy in policies for rate in rates
    ]
    configs = []
    for policy, rate in points:
        scenario = ScenarioSpec.homogeneous(
            workstations,
            owner,
            policy=policy,
            arrivals=JobArrivalSpec.poisson(rate=rate * saturation),
        )
        point_seed = streams.derive_seed(
            f"open-system-response/U={float(utilization):g}"
            f"/W={workstations}/policy={policy}/rate={rate:g}"
        )
        configs.append(
            SimulationConfig.from_scenario(
                scenario,
                task_demand=task_demand,
                num_jobs=num_jobs,
                num_batches=num_batches,
                seed=point_seed,
            )
        )
    outcome = SweepRunner(jobs=jobs).run(configs, mode="open-system")
    series: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    rows: list[QueueingRow] = []
    means: dict[str, list[float]] = {}
    for (policy, rate), result in zip(points, outcome):
        assert isinstance(result, OpenSystemResult)
        rows.append(
            _queueing_row(
                result,
                label_extra=f" policy={policy}",
                parameters_extra={"normalized_rate": rate},
            )
        )
        means.setdefault(policy, []).append(result.mean_response_time)
    for policy, values in means.items():
        series[policy] = (np.asarray(rates), np.asarray(values))
    return FigureResult(
        figure_id="open-system-response",
        title=(
            "Mean response time vs normalized arrival rate "
            f"(W={workstations}, U={utilization:g})"
        ),
        x_label="normalized arrival rate (fraction of saturation)",
        y_label="mean response time",
        series=series,
        metadata={
            "workstations": workstations,
            "utilization": utilization,
            "num_jobs": num_jobs,
            "rows": [row.as_dict() for row in rows],
        },
    )
