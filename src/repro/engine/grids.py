"""Named simulation-sweep grids for the figure experiments.

Each figure of the paper corresponds to a grid of independent simulation
points.  This module names those grids so the CLI (``repro-experiments sweep
fig01``), the benchmarks and the tests all build the *same*
:class:`~repro.backends.SimulationConfig` lists — with per-point
seeds derived deterministically from one base seed via
:meth:`~repro.desim.StreamRegistry.derive_seed`, so every point is independent
yet the whole sweep reproduces from a single integer.

Figures 1–6 share the fixed-job-size grid (``J`` constant, ``W`` swept, one
curve per owner utilization); Figure 9 uses the scaled-workload grid (constant
per-node demand ``T``); ``validation`` is the Section-2.2 grid at the paper's
20 × 1000 sampling effort.  Three scenario-parameterized families go beyond
the paper: ``hetero-concentration`` skews a fixed average owner load across
the cluster (the heterogeneous extension of :mod:`repro.core.heterogeneous`),
``policy-compare`` runs the same cluster under each task-scheduling policy of
:mod:`repro.cluster.policies` on the event-driven backend, ``arrival-sweep``
opens the system — a Poisson stream of competing parallel jobs at normalized
arrival rates — to measure steady-state queueing metrics on the open-system
backend, and ``admission-sweep`` space-shares it: mixes of moldable job
widths admitted by each policy of :mod:`repro.cluster.admission`.
"""

from __future__ import annotations

from typing import Sequence

from ..backends import SimulationConfig, get_backend
from ..cluster.admission import ADMISSION_POLICY_NAMES
from ..cluster.policies import POLICY_NAMES
from ..core.heterogeneous import concentrated_utilizations
from ..core.params import (
    JobArrivalSpec,
    JobClassSpec,
    OwnerSpec,
    ScenarioSpec,
    TaskRounding,
    split_job_demand,
)
from ..desim import StreamRegistry

__all__ = [
    "GRID_NAMES",
    "build_grid",
    "grid_mode",
    "grid_from_product",
    "saturation_rate",
]


def saturation_rate(utilization: float, task_demand: float) -> float:
    """Saturation throughput ``W * (1 - U) / J = (1 - U) / T`` of one point.

    The best-case completion rate of perfectly balanced whole-cluster jobs
    whose owners absorb a fraction ``U`` of each station; every open-system
    family (and the registered queueing figure) normalizes its arrival rates
    against this single definition.
    """
    return (1.0 - float(utilization)) / float(task_demand)

#: Owner utilizations plotted in the paper's Figures 1-9.
_PAPER_UTILIZATIONS: tuple[float, ...] = (0.01, 0.05, 0.10, 0.20)

#: Default workstation counts: the Section-2.2 validation x-axis.
_DEFAULT_WORKSTATIONS: tuple[int, ...] = (1, 5, 10, 20, 40, 60, 80, 100)

#: Concentration levels of the heterogeneous grid (0 = homogeneous,
#: 1 = half the machines doubly loaded, half idle).
_DEFAULT_CONCENTRATIONS: tuple[float, ...] = (0.0, 0.5, 1.0)

#: Workstation counts for the scenario families (kept modest: the policy
#: grid runs on the event-driven backend, which walks every preemption).
_SCENARIO_WORKSTATIONS: tuple[int, ...] = (8, 16, 32)

#: Normalized arrival rates of the open-system family: fractions of each
#: point's saturation throughput ``W * (1 - U) / J`` (so every point is a
#: stable queue regardless of its ``W`` and ``U``).
_DEFAULT_ARRIVAL_RATES: tuple[float, ...] = (0.25, 0.5, 0.75)

#: Workstation counts for the arrival family (open-system runs queue jobs,
#: so each point simulates a longer horizon than a closed run).
_ARRIVAL_WORKSTATIONS: tuple[int, ...] = (4, 8, 16)

#: Defaults of the admission (space-sharing) family: each point mixes a
#: narrow class (width swept below) with a full-width class and races the
#: admission policies on the same stream.
_ADMISSION_WORKSTATIONS: tuple[int, ...] = (8, 16)
_DEFAULT_JOB_WIDTHS: tuple[int, ...] = (2, 4)
_DEFAULT_ADMISSION_POLICIES: tuple[str, ...] = ADMISSION_POLICY_NAMES
_DEFAULT_ADMISSION_RATES: tuple[float, ...] = (0.5,)

#: name -> (kind, demand, default num_jobs, backend mode); ``fixed`` reads
#: demand as the total job size ``J``, ``scaled`` as the constant per-node
#: demand ``T``; ``concentration`` and ``policy`` are ``fixed``-demand
#: scenario families.
_GRIDS: dict[str, tuple[str, float, int, str]] = {
    "fig01": ("fixed", 1000.0, 2000, "monte-carlo"),
    "fig02": ("fixed", 1000.0, 2000, "monte-carlo"),
    "fig03": ("fixed", 1000.0, 2000, "monte-carlo"),
    "fig04": ("fixed", 1000.0, 2000, "monte-carlo"),
    "fig05": ("fixed", 10_000.0, 2000, "monte-carlo"),
    "fig06": ("fixed", 10_000.0, 2000, "monte-carlo"),
    "fig09": ("scaled", 100.0, 2000, "monte-carlo"),
    "validation": ("fixed", 1000.0, 20_000, "monte-carlo"),
    "hetero-concentration": ("concentration", 1000.0, 2000, "monte-carlo"),
    "policy-compare": ("policy", 1000.0, 400, "event-driven"),
    "arrival-sweep": ("arrival", 1000.0, 400, "open-system"),
    "admission-sweep": ("admission", 1000.0, 300, "open-system"),
}

GRID_NAMES: tuple[str, ...] = tuple(_GRIDS)


def grid_mode(name: str) -> str:
    """Simulation backend for a named grid.

    The mode is validated through the backend registry, so a grid declared
    against an unregistered backend fails loudly here instead of deep inside
    a sweep.
    """
    if name not in _GRIDS:
        raise KeyError(f"unknown sweep grid {name!r}; known grids: {sorted(_GRIDS)}")
    mode = _GRIDS[name][3]
    get_backend(mode)
    return mode


def grid_from_product(
    name: str,
    task_demands: Sequence[float],
    workstation_counts: Sequence[int],
    utilizations: Sequence[float],
    *,
    owner_demand: float = 10.0,
    num_jobs: int = 2000,
    num_batches: int = 20,
    confidence: float = 0.90,
    seed: int = 0,
) -> list[SimulationConfig]:
    """Cross a ``(T, W)`` sequence with owner utilizations into config points.

    ``task_demands`` and ``workstation_counts`` are paired element-wise (one
    ``(T, W)`` cell per index); utilizations form the outer product.  Each
    point receives an independent seed derived from ``seed`` and the point's
    coordinates, so reordering or subsetting the grid never changes any
    point's samples.
    """
    if len(task_demands) != len(workstation_counts):
        raise ValueError(
            f"task_demands ({len(task_demands)}) and workstation_counts "
            f"({len(workstation_counts)}) must pair up element-wise"
        )
    streams = StreamRegistry(seed)
    configs: list[SimulationConfig] = []
    for utilization in utilizations:
        owner = OwnerSpec(demand=owner_demand, utilization=float(utilization))
        for task_demand, workstations in zip(task_demands, workstation_counts):
            point_seed = streams.derive_seed(
                f"{name}/U={float(utilization):g}/W={int(workstations)}"
                f"/T={float(task_demand):g}"
            )
            configs.append(
                SimulationConfig(
                    workstations=int(workstations),
                    task_demand=float(task_demand),
                    owner=owner,
                    num_jobs=num_jobs,
                    num_batches=num_batches,
                    confidence=confidence,
                    seed=point_seed,
                )
            )
    return configs


def _concentration_grid(
    name: str,
    job_demand: float,
    workstation_counts: Sequence[int],
    mean_utilizations: Sequence[float],
    concentration_levels: Sequence[float],
    *,
    owner_demand: float,
    num_jobs: int,
    num_batches: int,
    confidence: float,
    seed: int,
) -> list[SimulationConfig]:
    """Heterogeneous family: same average owner load, increasingly skewed.

    One point per ``(mean U, W, concentration level)``; every point is a
    static-policy scenario whose per-station utilizations come from
    :func:`~repro.core.heterogeneous.concentrated_utilizations`, so the
    Monte-Carlo backend samples the non-identically distributed task times
    the product-CDF closed form describes.
    """
    streams = StreamRegistry(seed)
    configs: list[SimulationConfig] = []
    for utilization in mean_utilizations:
        for workstations in workstation_counts:
            task_demand = split_job_demand(
                job_demand, int(workstations), TaskRounding.ROUND
            )
            for level in concentration_levels:
                scenario = ScenarioSpec.from_utilizations(
                    concentrated_utilizations(
                        int(workstations), float(utilization), float(level)
                    ),
                    owner_demand=owner_demand,
                )
                point_seed = streams.derive_seed(
                    f"{name}/U={float(utilization):g}/W={int(workstations)}"
                    f"/T={float(task_demand):g}/c={float(level):g}"
                )
                configs.append(
                    SimulationConfig.from_scenario(
                        scenario,
                        task_demand=task_demand,
                        num_jobs=num_jobs,
                        num_batches=num_batches,
                        confidence=confidence,
                        seed=point_seed,
                    )
                )
    return configs


def _policy_grid(
    name: str,
    job_demand: float,
    workstation_counts: Sequence[int],
    utilizations: Sequence[float],
    policies: Sequence[str],
    *,
    owner_demand: float,
    num_jobs: int,
    num_batches: int,
    confidence: float,
    seed: int,
) -> list[SimulationConfig]:
    """Policy family: the same homogeneous cluster under each dispatch policy."""
    for policy in policies:
        if policy not in POLICY_NAMES:
            raise ValueError(
                f"unknown scheduling policy {policy!r}; "
                f"known policies: {sorted(POLICY_NAMES)}"
            )
    streams = StreamRegistry(seed)
    configs: list[SimulationConfig] = []
    for utilization in utilizations:
        owner = OwnerSpec(demand=owner_demand, utilization=float(utilization))
        for workstations in workstation_counts:
            task_demand = split_job_demand(
                job_demand, int(workstations), TaskRounding.ROUND
            )
            for policy in policies:
                scenario = ScenarioSpec.homogeneous(
                    int(workstations), owner, policy=str(policy)
                )
                point_seed = streams.derive_seed(
                    f"{name}/U={float(utilization):g}/W={int(workstations)}"
                    f"/T={float(task_demand):g}/policy={policy}"
                )
                configs.append(
                    SimulationConfig.from_scenario(
                        scenario,
                        task_demand=task_demand,
                        num_jobs=num_jobs,
                        num_batches=num_batches,
                        confidence=confidence,
                        seed=point_seed,
                    )
                )
    return configs


def _arrival_grid(
    name: str,
    job_demand: float,
    workstation_counts: Sequence[int],
    utilizations: Sequence[float],
    arrival_rates: Sequence[float],
    *,
    owner_demand: float,
    num_jobs: int,
    num_batches: int,
    confidence: float,
    seed: int,
) -> list[SimulationConfig]:
    """Open-system family: a Poisson job stream on the non-dedicated cluster.

    ``arrival_rates`` are *normalized*: each value is the fraction of the
    point's saturation throughput ``mu = W * (1 - U) / J`` (the best-case
    service rate of a perfectly balanced job on ``W`` stations whose owners
    absorb a fraction ``U`` of the capacity), so the same rate vector yields
    comparably loaded — and stable, for rates < 1 — queues across every
    ``(W, U)`` cell.
    """
    streams = StreamRegistry(seed)
    configs: list[SimulationConfig] = []
    for utilization in utilizations:
        owner = OwnerSpec(demand=owner_demand, utilization=float(utilization))
        for workstations in workstation_counts:
            task_demand = split_job_demand(
                job_demand, int(workstations), TaskRounding.ROUND
            )
            saturation = saturation_rate(utilization, task_demand)
            for rate in arrival_rates:
                if not 0.0 < float(rate) < 1.0:
                    raise ValueError(
                        "normalized arrival rates must lie in (0, 1) so the "
                        f"queue is stable, got {rate!r}"
                    )
                arrivals = JobArrivalSpec.poisson(
                    rate=float(rate) * saturation, demand_kind="deterministic"
                )
                scenario = ScenarioSpec.homogeneous(
                    int(workstations), owner, arrivals=arrivals
                )
                point_seed = streams.derive_seed(
                    f"{name}/U={float(utilization):g}/W={int(workstations)}"
                    f"/T={float(task_demand):g}/rate={float(rate):g}"
                )
                configs.append(
                    SimulationConfig.from_scenario(
                        scenario,
                        task_demand=task_demand,
                        num_jobs=num_jobs,
                        num_batches=num_batches,
                        confidence=confidence,
                        seed=point_seed,
                    )
                )
    return configs


def _admission_grid(
    name: str,
    job_demand: float,
    workstation_counts: Sequence[int],
    utilizations: Sequence[float],
    widths: Sequence[int],
    admission_policies: Sequence[str],
    arrival_rates: Sequence[float],
    *,
    owner_demand: float,
    num_jobs: int,
    num_batches: int,
    confidence: float,
    seed: int,
) -> list[SimulationConfig]:
    """Space-sharing family: moldable widths × admission policies.

    Every point streams a Poisson mix of two moldable classes — a ``narrow``
    class at the swept width (75% of arrivals) and a full-width ``wide``
    class at higher priority (25%) — through one admission policy, so the
    grid answers the space-sharing question head on: how much response time
    does each discipline recover from head-of-line blocking?  Rates are
    normalized to the full-cluster saturation throughput ``W * (1 - U) / J``
    (packing losses make the true saturation lower, so keep them modest).
    Width/``W`` combinations where the narrow width does not fit are skipped.
    """
    for policy in admission_policies:
        if policy not in ADMISSION_POLICY_NAMES:
            raise ValueError(
                f"unknown admission policy {policy!r}; "
                f"known policies: {sorted(ADMISSION_POLICY_NAMES)}"
            )
    streams = StreamRegistry(seed)
    configs: list[SimulationConfig] = []
    for utilization in utilizations:
        owner = OwnerSpec(demand=owner_demand, utilization=float(utilization))
        for workstations in workstation_counts:
            task_demand = split_job_demand(
                job_demand, int(workstations), TaskRounding.ROUND
            )
            saturation = saturation_rate(utilization, task_demand)
            for width in widths:
                if not 1 <= int(width) <= int(workstations):
                    continue
                classes = (
                    JobClassSpec(
                        "narrow", width=int(width), weight=0.75, priority=0
                    ),
                    JobClassSpec(
                        "wide", width=int(workstations), weight=0.25, priority=1
                    ),
                )
                for policy in admission_policies:
                    for rate in arrival_rates:
                        if not 0.0 < float(rate) < 1.0:
                            raise ValueError(
                                "normalized arrival rates must lie in (0, 1) "
                                f"so the queue is stable, got {rate!r}"
                            )
                        arrivals = JobArrivalSpec.poisson(
                            rate=float(rate) * saturation,
                            demand_kind="deterministic",
                            job_classes=classes,
                            admission_policy=str(policy),
                        )
                        scenario = ScenarioSpec.homogeneous(
                            int(workstations), owner, arrivals=arrivals
                        )
                        point_seed = streams.derive_seed(
                            f"{name}/U={float(utilization):g}"
                            f"/W={int(workstations)}/T={float(task_demand):g}"
                            f"/w={int(width)}/adm={policy}"
                            f"/rate={float(rate):g}"
                        )
                        configs.append(
                            SimulationConfig.from_scenario(
                                scenario,
                                task_demand=task_demand,
                                num_jobs=num_jobs,
                                num_batches=num_batches,
                                confidence=confidence,
                                seed=point_seed,
                            )
                        )
    if not configs:
        raise ValueError(
            f"admission grid is empty: no width in {tuple(widths)!r} fits any "
            f"workstation count in {tuple(workstation_counts)!r}"
        )
    return configs


def build_grid(
    name: str,
    *,
    workstation_counts: Sequence[int] | None = None,
    utilizations: Sequence[float] | None = None,
    num_jobs: int | None = None,
    owner_demand: float = 10.0,
    num_batches: int = 20,
    confidence: float = 0.90,
    seed: int = 0,
    concentration_levels: Sequence[float] | None = None,
    policies: Sequence[str] | None = None,
    arrival_rates: Sequence[float] | None = None,
    job_widths: Sequence[int] | None = None,
    admission_policies: Sequence[str] | None = None,
) -> list[SimulationConfig]:
    """Build the config list of a named grid (dimensions overridable).

    ``concentration_levels`` applies only to the ``hetero-concentration``
    family (where ``utilizations`` are the *cluster-average* utilizations),
    ``policies`` only to ``policy-compare``, ``arrival_rates`` (normalized to
    each point's saturation throughput, in ``(0, 1)``) to ``arrival-sweep``
    and ``admission-sweep``, and ``job_widths`` / ``admission_policies`` only
    to ``admission-sweep``; passing one for a grid that has no such axis
    raises ``ValueError``.
    """
    try:
        kind, demand, default_jobs, _ = _GRIDS[name]
    except KeyError:
        raise KeyError(
            f"unknown sweep grid {name!r}; known grids: {sorted(_GRIDS)}"
        ) from None
    if concentration_levels is not None and kind != "concentration":
        raise ValueError(
            f"grid {name!r} has no concentration axis (only hetero-concentration does)"
        )
    if policies is not None and kind != "policy":
        raise ValueError(
            f"grid {name!r} has no policy axis (only policy-compare does)"
        )
    if arrival_rates is not None and kind not in ("arrival", "admission"):
        raise ValueError(
            f"grid {name!r} has no arrival-rate axis "
            "(only arrival-sweep and admission-sweep do)"
        )
    if job_widths is not None and kind != "admission":
        raise ValueError(
            f"grid {name!r} has no job-width axis (only admission-sweep does)"
        )
    if admission_policies is not None and kind != "admission":
        raise ValueError(
            f"grid {name!r} has no admission-policy axis (only admission-sweep does)"
        )
    if utilizations is None:
        utilizations = _PAPER_UTILIZATIONS if kind != "concentration" else (0.10,)
    utils = tuple(float(u) for u in utilizations)
    jobs = num_jobs if num_jobs is not None else default_jobs
    common = dict(
        owner_demand=owner_demand,
        num_jobs=jobs,
        num_batches=num_batches,
        confidence=confidence,
        seed=seed,
    )
    if kind == "concentration":
        counts = tuple(
            int(w)
            for w in (
                workstation_counts
                if workstation_counts is not None
                else _SCENARIO_WORKSTATIONS
            )
        )
        levels = tuple(
            float(c)
            for c in (
                concentration_levels
                if concentration_levels is not None
                else _DEFAULT_CONCENTRATIONS
            )
        )
        return _concentration_grid(name, demand, counts, utils, levels, **common)
    if kind == "policy":
        counts = tuple(
            int(w)
            for w in (
                workstation_counts
                if workstation_counts is not None
                else _SCENARIO_WORKSTATIONS
            )
        )
        chosen = tuple(
            str(p) for p in (policies if policies is not None else POLICY_NAMES)
        )
        return _policy_grid(name, demand, counts, utils, chosen, **common)
    if kind == "arrival":
        counts = tuple(
            int(w)
            for w in (
                workstation_counts
                if workstation_counts is not None
                else _ARRIVAL_WORKSTATIONS
            )
        )
        rates = tuple(
            float(r)
            for r in (
                arrival_rates if arrival_rates is not None else _DEFAULT_ARRIVAL_RATES
            )
        )
        return _arrival_grid(name, demand, counts, utils, rates, **common)
    if kind == "admission":
        counts = tuple(
            int(w)
            for w in (
                workstation_counts
                if workstation_counts is not None
                else _ADMISSION_WORKSTATIONS
            )
        )
        widths = tuple(
            int(w)
            for w in (job_widths if job_widths is not None else _DEFAULT_JOB_WIDTHS)
        )
        chosen = tuple(
            str(p)
            for p in (
                admission_policies
                if admission_policies is not None
                else _DEFAULT_ADMISSION_POLICIES
            )
        )
        rates = tuple(
            float(r)
            for r in (
                arrival_rates
                if arrival_rates is not None
                else _DEFAULT_ADMISSION_RATES
            )
        )
        return _admission_grid(
            name, demand, counts, utils, widths, chosen, rates, **common
        )
    counts = tuple(
        int(w)
        for w in (
            workstation_counts
            if workstation_counts is not None
            else _DEFAULT_WORKSTATIONS
        )
    )
    if kind == "fixed":
        task_demands = [
            split_job_demand(demand, w, TaskRounding.ROUND) for w in counts
        ]
    else:
        task_demands = [demand] * len(counts)
    return grid_from_product(name, task_demands, counts, utils, **common)
