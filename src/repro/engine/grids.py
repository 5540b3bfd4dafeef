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
20 × 1000 sampling effort.  Four scenario-parameterized families go beyond
the paper: ``hetero-concentration`` skews a fixed average owner load across
the cluster (the heterogeneous extension of :mod:`repro.core.heterogeneous`),
``policy-compare`` runs the same cluster under each task-scheduling policy of
:mod:`repro.cluster.policies` on the event-driven backend, ``arrival-sweep``
opens the system — a Poisson stream of competing parallel jobs at normalized
arrival rates — to measure steady-state queueing metrics on the open-system
backend, and ``admission-sweep`` space-shares it: mixes of moldable job
widths admitted by each policy of :mod:`repro.cluster.admission`.

Each overridable axis is declared once, in :data:`GRID_AXES`, and each
family once, in ``_FAMILIES``; :func:`build_grid`, the CLI override flags
and the service's JSON overrides all derive from these two tables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable

from ..backends import MAX_POINT_TASKS, MAX_WORKSTATIONS, SimulationConfig, get_backend
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
from .codec import _integer, _number, _string

__all__ = [
    "GRID_AXES",
    "GRID_NAMES",
    "GridAxis",
    "MAX_GRID_POINTS",
    "MAX_POINT_TASKS",
    "MAX_WORKSTATIONS",
    "PAPER_UTILIZATIONS",
    "build_grid",
    "grid_mode",
    "saturation_rate",
]

#: Most points one grid may have: the five-digit ``point%05d`` namespace of
#: a job payload (:mod:`repro.service.results`).
MAX_GRID_POINTS = 100_000


def saturation_rate(utilization: float, task_demand: float) -> float:
    """Saturation throughput ``W * (1 - U) / J = (1 - U) / T`` of one point.

    The best-case completion rate of perfectly balanced whole-cluster jobs
    whose owners absorb a fraction ``U`` of each station; every open-system
    family (and the registered queueing figure) normalizes its arrival rates
    against this single definition.
    """
    return (1.0 - float(utilization)) / float(task_demand)


@dataclass(frozen=True)
class GridAxis:
    """One overridable grid axis, declared once for every layer.

    ``key`` is the :func:`build_grid` keyword and the JSON override key of a
    service submission; ``flag`` is the CLI flag taking a comma-separated
    list; every value must be of ``type`` (``int``, ``float`` or ``str``);
    ``label`` keys the axis in a point's seed label, and ``noun`` names it
    in the error for a grid that lacks it.
    """

    key: str
    flag: str
    type: Callable[[Any], Any]
    label: str
    noun: str
    help: str

    def cast(self, values: Iterable[Any]) -> tuple[Any, ...]:
        """``values`` as a tuple of the axis type; ``ValueError`` on a value
        the config codec would refuse for a field of that type."""
        check = _SCALAR_CHECKS[self.type]
        return tuple(self.type(check(value, self.key)) for value in values)


_SCALAR_CHECKS: dict[Callable[[Any], Any], Callable[[Any, str], Any]] = {
    int: _integer,
    float: _number,
    str: _string,
}


GRID_AXES: tuple[GridAxis, ...] = (
    GridAxis(
        "workstation_counts", "--workstations", int, "W", "workstation",
        "comma-separated workstation counts overriding the grid's W axis",
    ),
    GridAxis(
        "utilizations", "--utilizations", float, "U", "utilization",
        "comma-separated owner utilizations overriding the grid's curves "
        "(cluster-average utilizations for hetero-concentration)",
    ),
    GridAxis(
        "concentration_levels", "--concentrations", float, "c", "concentration",
        "comma-separated load-concentration levels in [0, 1] "
        "(hetero-concentration grid only)",
    ),
    GridAxis(
        "policies", "--policies", str, "policy", "policy",
        "comma-separated scheduling policies "
        "(policy-compare grid only; see repro.cluster.POLICY_NAMES)",
    ),
    GridAxis(
        "arrival_rates", "--arrival-rates", float, "rate", "arrival-rate",
        "comma-separated normalized job-arrival rates in (0, 1) — "
        "fractions of each point's saturation throughput "
        "(arrival-sweep and admission-sweep grids)",
    ),
    GridAxis(
        "job_widths", "--job-widths", int, "w", "job-width",
        "comma-separated moldable-job widths for the narrow class "
        "(admission-sweep grid only)",
    ),
    GridAxis(
        "admission_policies", "--admission-policies", str, "adm",
        "admission-policy",
        "comma-separated admission policies "
        "(admission-sweep grid only; see repro.cluster.ADMISSION_POLICY_NAMES)",
    ),
)

_AXES: dict[str, GridAxis] = {axis.key: axis for axis in GRID_AXES}


@dataclass(frozen=True)
class _Family:
    """One grid family.

    ``point(owner, W, T, *coords)`` builds the point at one tuple of the
    family's own ``axes`` (key -> default values, in walk order): the
    scenario of an explicit-scenario point, the owner of a paper point (its
    config keeps ``scenario=None``), or ``None`` where the coordinates name
    no point.  A ``scaled`` family reads its grids' demand as the per-node
    ``T`` instead of the job size ``J``.
    """

    workstations: tuple[int, ...]
    utilizations: tuple[float, ...]
    point: Callable[..., ScenarioSpec | OwnerSpec | None]
    axes: dict[str, tuple[Any, ...]] = field(default_factory=dict)
    scaled: bool = False


def _paper_point(owner: OwnerSpec, workstations: int, task_demand: float) -> OwnerSpec:
    return owner


def _concentration_point(
    owner: OwnerSpec, workstations: int, task_demand: float, level: float
) -> ScenarioSpec:
    """The owner's utilization as a cluster average, skewed by ``level``."""
    assert owner.utilization is not None
    loads = concentrated_utilizations(workstations, owner.utilization, level)
    return ScenarioSpec.from_utilizations(loads, owner_demand=owner.demand)


def _policy_point(
    owner: OwnerSpec, workstations: int, task_demand: float, policy: str
) -> ScenarioSpec:
    return ScenarioSpec.homogeneous(workstations, owner, policy=policy)


def _poisson(
    rate: float, owner: OwnerSpec, task_demand: float, **classes: Any
) -> JobArrivalSpec:
    """A Poisson stream at ``rate`` times the point's saturation throughput,
    so the same rates load every ``(W, U)`` cell alike (and stably, below 1).
    """
    if not 0.0 < rate < 1.0:
        raise ValueError(
            "normalized arrival rates must lie in (0, 1) so the queue is "
            f"stable, got {rate!r}"
        )
    assert owner.utilization is not None
    return JobArrivalSpec.poisson(
        rate=rate * saturation_rate(owner.utilization, task_demand),
        demand_kind="deterministic",
        **classes,
    )


def _arrival_point(
    owner: OwnerSpec, workstations: int, task_demand: float, rate: float
) -> ScenarioSpec:
    arrivals = _poisson(rate, owner, task_demand)
    return ScenarioSpec.homogeneous(workstations, owner, arrivals=arrivals)


def _admission_point(
    owner: OwnerSpec, workstations: int, task_demand: float,
    width: int, policy: str, rate: float,
) -> ScenarioSpec | None:
    """A narrow class at ``width`` (75% of arrivals) beside a full-width,
    higher-priority class, admitted by ``policy``; none if ``width`` does
    not fit.  Packing losses put the true saturation below the normalizing
    one, so keep the rates modest.
    """
    if not 1 <= width <= workstations:
        return None
    classes = (
        JobClassSpec("narrow", width=width, weight=0.75, priority=0),
        JobClassSpec("wide", width=workstations, weight=0.25, priority=1),
    )
    arrivals = _poisson(
        rate, owner, task_demand, job_classes=classes, admission_policy=policy
    )
    return ScenarioSpec.homogeneous(workstations, owner, arrivals=arrivals)


#: Owner utilizations plotted in the paper's Figures 1-9.
PAPER_UTILIZATIONS: tuple[float, ...] = (0.01, 0.05, 0.10, 0.20)

#: The paper's fixed-job-size family; its W axis is the Section-2.2
#: validation x-axis.
_PAPER = _Family((1, 5, 10, 20, 40, 60, 80, 100), PAPER_UTILIZATIONS, _paper_point)

#: Family name -> family.  The scenario families keep their clusters modest:
#: the policy family walks every preemption on the event-driven backend and
#: the open families queue jobs over a longer horizon.  Concentration level
#: 0 is homogeneous, 1 loads half the machines doubly and idles the rest.
_FAMILIES: dict[str, _Family] = {
    "fixed": _PAPER,
    "scaled": replace(_PAPER, scaled=True),
    "concentration": _Family(
        (8, 16, 32), (0.10,), _concentration_point,
        {"concentration_levels": (0.0, 0.5, 1.0)},
    ),
    "policy": _Family(
        (8, 16, 32), PAPER_UTILIZATIONS, _policy_point, {"policies": POLICY_NAMES}
    ),
    "arrival": _Family(
        (4, 8, 16), PAPER_UTILIZATIONS, _arrival_point,
        {"arrival_rates": (0.25, 0.5, 0.75)},
    ),
    "admission": _Family(
        (8, 16), PAPER_UTILIZATIONS, _admission_point,
        {"job_widths": (2, 4), "admission_policies": ADMISSION_POLICY_NAMES,
         "arrival_rates": (0.5,)},
    ),
}

#: name -> (family, demand, default num_jobs, backend mode); the demand is
#: the job size ``J`` unless the family is ``scaled``.
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


def _coordinate(key: str, value: Any) -> str:
    """One ``/key=value`` step of a seed label (floats print as ``:g``)."""
    return f"/{key}={value:g}" if isinstance(value, float) else f"/{key}={value}"


def _grid(name: str) -> tuple[str, float, int, str]:
    try:
        return _GRIDS[name]
    except KeyError:
        raise KeyError(
            f"unknown sweep grid {name!r}; known grids: {sorted(_GRIDS)}"
        ) from None


def grid_mode(name: str) -> str:
    """Simulation backend for a named grid.

    The mode is validated through the backend registry, so a grid declared
    against an unregistered backend fails loudly here instead of deep inside
    a sweep.
    """
    mode = _grid(name)[3]
    get_backend(mode)
    return mode


def build_grid(
    name: str,
    *,
    num_jobs: int | None = None,
    owner_demand: float = 10.0,
    num_batches: int = 20,
    confidence: float = 0.90,
    seed: int = 0,
    **axes: Iterable[Any] | None,
) -> list[SimulationConfig]:
    """Build the config list of a named grid (any axis overridable).

    ``axes`` overrides any of the grid's :data:`GRID_AXES` by key (``None``
    keeps the default); ``utilizations`` are cluster averages on
    ``hetero-concentration``, and ``arrival_rates`` are fractions of each
    point's saturation throughput, in ``(0, 1)``.  The walk runs over
    ``U``, then ``W``, then the family's own axes in order; each point's
    seed derives from its coordinates, so reordering or subsetting a grid
    never changes any point's samples.  An unknown key, an axis the grid
    lacks, a value of the wrong type (``num_jobs=100.9``, ``seed=True``,
    ``workstation_counts=[2.9]``), more than :data:`MAX_GRID_POINTS`
    points, or a point of more than :data:`MAX_WORKSTATIONS` workstations
    or :data:`MAX_POINT_TASKS` task times raises ``ValueError``.
    """
    kind, demand, default_jobs, _ = _grid(name)
    seed = _integer(seed, "seed")
    num_batches = _integer(num_batches, "num_batches")
    if num_jobs is not None:
        num_jobs = _integer(num_jobs, "num_jobs")
    _number(owner_demand, "owner_demand")
    _number(confidence, "confidence")
    family = _FAMILIES[kind]
    values: dict[str, tuple[Any, ...]] = {
        "workstation_counts": family.workstations,
        "utilizations": family.utilizations,
        **family.axes,
    }
    for key, given in axes.items():
        if key not in _AXES:
            raise ValueError(
                f"unknown grid override {key!r}; the grid axes are {list(_AXES)}"
            )
        if given is None:
            continue
        if key not in values:
            owners = [
                grid for grid, entry in _GRIDS.items()
                if key in _FAMILIES[entry[0]].axes
            ]
            raise ValueError(
                f"grid {name!r} has no {_AXES[key].noun} axis "
                f"(only {' and '.join(owners)} {'does' if len(owners) == 1 else 'do'})"
            )
        values[key] = _AXES[key].cast(given)
    size = math.prod(map(len, values.values()))
    if size > MAX_GRID_POINTS:
        raise ValueError(
            f"grid {name!r} would have {size} points; "
            f"a grid may have at most {MAX_GRID_POINTS}"
        )
    settings: dict[str, Any] = {
        "num_jobs": default_jobs if num_jobs is None else num_jobs,
        "num_batches": num_batches,
        "confidence": confidence,
    }
    widest = max(values["workstation_counts"], default=0)
    if settings["num_jobs"] * widest > MAX_POINT_TASKS:
        raise ValueError(
            f"grid {name!r} would have a point of num_jobs "
            f"{settings['num_jobs']} x W {widest} task times; "
            f"a point may hold at most {MAX_POINT_TASKS}"
        )
    if widest > MAX_WORKSTATIONS:
        raise ValueError(
            f"grid {name!r} would have a point of W {widest}; "
            f"a point may have at most {MAX_WORKSTATIONS} workstations"
        )
    labels = [_AXES[key].label for key in family.axes]
    streams = StreamRegistry(seed)
    configs: list[SimulationConfig] = []
    skipped = 0
    for utilization in values["utilizations"]:
        owner = OwnerSpec(demand=owner_demand, utilization=utilization)
        for workstations in values["workstation_counts"]:
            task_demand = (
                demand
                if family.scaled
                else split_job_demand(demand, workstations, TaskRounding.ROUND)
            )
            prefix = f"{name}/U={utilization:g}/W={workstations}/T={task_demand:g}"
            for coords in itertools.product(*(values[key] for key in family.axes)):
                point = family.point(owner, workstations, task_demand, *coords)
                if point is None:
                    skipped += 1
                    continue
                label = prefix + "".join(map(_coordinate, labels, coords))
                point_seed = streams.derive_seed(label)
                configs.append(
                    SimulationConfig.from_scenario(
                        point, task_demand, seed=point_seed, **settings
                    )
                    if isinstance(point, ScenarioSpec)
                    else SimulationConfig(
                        workstations, task_demand, point, seed=point_seed, **settings
                    )
                )
    if skipped and not configs:
        raise ValueError(
            f"grid {name!r} is empty: all {skipped} of its points were skipped "
            "(a job width must fit the workstation count)"
        )
    return configs
