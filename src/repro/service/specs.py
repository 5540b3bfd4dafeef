"""JSON codec for sweep submissions: named grids and raw config batches.

The sweep service accepts work over a JSON wire format, so everything a
:class:`~repro.backends.SimulationConfig` can express — heterogeneous
stations, trace-driven owners, open-system arrival streams, space-shared job
classes — needs a lossless JSON round trip.  The codec here mirrors the
fingerprint payload of :func:`repro.engine.cache.config_fingerprint` field
for field: floats travel as JSON numbers (Python guarantees ``repr`` round
trips them exactly), so a config decoded from its own encoding fingerprints
to the *same* cache digest and simulates bitwise-identically.

A submission is a :class:`SweepJobSpec` — either a named grid plus
:func:`~repro.engine.grids.build_grid` overrides (``kind="grid"``) or an
explicit list of encoded configs plus a backend mode (``kind="points"``).
Seeds always live inside the resolved configs (derived from grid coordinates
by ``build_grid``, or carried verbatim by raw points); the service never
invents one, which is what keeps its results bitwise-equal to a library
:meth:`~repro.engine.SweepRunner.run` of the same grid.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..backends import SimulationConfig
from ..core.params import (
    JobArrivalSpec,
    JobClassSpec,
    OwnerSpec,
    ScenarioSpec,
    StationSpec,
)
from ..engine import build_grid, grid_mode
from ..workload import OwnerActivityTrace

__all__ = [
    "EXECUTORS",
    "SweepJobSpec",
    "config_to_json",
    "config_from_json",
    "spec_digest",
]

#: Execution strategies a job may request.  Both run every shard through
#: :meth:`SweepRunner.run` on the job's backend mode.  ``sweep`` is the
#: bitwise, fully cache-served contract the service guarantees;
#: ``vectorized`` also opts Monte-Carlo points into group sampling, which
#: is only statistically identical and bypasses the cache.
EXECUTORS: tuple[str, ...] = ("sweep", "vectorized")


def _owner_to_json(owner: OwnerSpec) -> dict[str, Any]:
    return {
        "demand": float(owner.demand),
        "utilization": None if owner.utilization is None else float(owner.utilization),
        "request_probability": (
            None
            if owner.request_probability is None
            else float(owner.request_probability)
        ),
    }


def _owner_from_json(payload: Mapping[str, Any]) -> OwnerSpec:
    demand = float(payload["demand"])
    utilization = payload.get("utilization")
    probability = payload.get("request_probability")
    if utilization is not None:
        owner = OwnerSpec(demand=demand, utilization=float(utilization))
        if probability is not None and owner.request_probability != float(probability):
            # The spec was originally built from its request probability and
            # Eq. 8 does not round-trip this pair exactly; rebuild from the
            # probability so both stored floats are reproduced bit for bit
            # (the cache fingerprint covers both).
            owner = OwnerSpec(demand=demand, request_probability=float(probability))
            if owner.utilization != float(utilization):
                object.__setattr__(owner, "utilization", float(utilization))
        return owner
    if probability is None:
        raise ValueError(
            "an owner payload needs utilization or request_probability"
        )
    return OwnerSpec(demand=demand, request_probability=float(probability))


def _pairs_to_json(pairs: Sequence[Sequence[Any]]) -> list[list[Any]]:
    return [[str(name), float(value)] for name, value in pairs]


def _pairs_from_json(payload: Sequence[Sequence[Any]]) -> tuple[tuple[str, float], ...]:
    return tuple((str(name), float(value)) for name, value in payload)


def _trace_to_json(trace: OwnerActivityTrace | None) -> dict[str, Any] | None:
    if trace is None:
        return None
    return {
        "horizon": float(trace.horizon),
        "busy_intervals": [
            [float(start), float(end)] for start, end in trace.busy_intervals
        ],
    }


def _trace_from_json(payload: Mapping[str, Any] | None) -> OwnerActivityTrace | None:
    if payload is None:
        return None
    return OwnerActivityTrace(
        horizon=float(payload["horizon"]),
        busy_intervals=tuple(
            (float(start), float(end)) for start, end in payload["busy_intervals"]
        ),
    )


def _station_to_json(station: StationSpec) -> dict[str, Any]:
    return {
        "owner": _owner_to_json(station.owner),
        "demand_kind": str(station.demand_kind),
        "demand_kwargs": _pairs_to_json(station.demand_kwargs),
        "trace": _trace_to_json(station.trace),
    }


def _station_from_json(payload: Mapping[str, Any]) -> StationSpec:
    return StationSpec(
        owner=_owner_from_json(payload["owner"]),
        demand_kind=str(payload.get("demand_kind", "deterministic")),
        demand_kwargs=_pairs_from_json(payload.get("demand_kwargs", ())),
        trace=_trace_from_json(payload.get("trace")),
    )


def _job_class_to_json(job_class: JobClassSpec) -> dict[str, Any]:
    return {
        "name": str(job_class.name),
        "width": int(job_class.width),
        "priority": int(job_class.priority),
        "weight": float(job_class.weight),
        "population": int(job_class.population),
        "think_time": (
            None if job_class.think_time is None else float(job_class.think_time)
        ),
        "think_time_kind": str(job_class.think_time_kind),
        "think_time_kwargs": _pairs_to_json(job_class.think_time_kwargs),
    }


def _job_class_from_json(payload: Mapping[str, Any]) -> JobClassSpec:
    think_time = payload.get("think_time")
    return JobClassSpec(
        name=str(payload["name"]),
        width=int(payload["width"]),
        priority=int(payload.get("priority", 0)),
        weight=float(payload.get("weight", 1.0)),
        population=int(payload.get("population", 0)),
        think_time=None if think_time is None else float(think_time),
        think_time_kind=str(payload.get("think_time_kind", "exponential")),
        think_time_kwargs=_pairs_from_json(payload.get("think_time_kwargs", ())),
    )


def _arrivals_to_json(arrivals: JobArrivalSpec | None) -> dict[str, Any] | None:
    if arrivals is None:
        return None
    return {
        "kind": str(arrivals.kind),
        "rate": None if arrivals.rate is None else float(arrivals.rate),
        "interarrivals": [float(gap) for gap in arrivals.interarrivals],
        "demand_kind": str(arrivals.demand_kind),
        "demand_kwargs": _pairs_to_json(arrivals.demand_kwargs),
        "max_concurrent_jobs": int(arrivals.max_concurrent_jobs),
        "warmup_fraction": float(arrivals.warmup_fraction),
        "job_classes": [_job_class_to_json(jc) for jc in arrivals.job_classes],
        "admission_policy": str(arrivals.admission_policy),
        "admission_kwargs": _pairs_to_json(arrivals.admission_kwargs),
    }


def _arrivals_from_json(
    payload: Mapping[str, Any] | None,
) -> JobArrivalSpec | None:
    if payload is None:
        return None
    rate = payload.get("rate")
    return JobArrivalSpec(
        kind=str(payload.get("kind", "poisson")),
        rate=None if rate is None else float(rate),
        interarrivals=tuple(float(gap) for gap in payload.get("interarrivals", ())),
        demand_kind=str(payload.get("demand_kind", "deterministic")),
        demand_kwargs=_pairs_from_json(payload.get("demand_kwargs", ())),
        max_concurrent_jobs=int(payload.get("max_concurrent_jobs", 1)),
        warmup_fraction=float(payload.get("warmup_fraction", 0.1)),
        job_classes=tuple(
            _job_class_from_json(jc) for jc in payload.get("job_classes", ())
        ),
        admission_policy=str(payload.get("admission_policy", "fcfs")),
        admission_kwargs=_pairs_from_json(payload.get("admission_kwargs", ())),
    )


def _scenario_to_json(scenario: ScenarioSpec | None) -> dict[str, Any] | None:
    if scenario is None:
        return None
    return {
        "stations": [_station_to_json(station) for station in scenario.stations],
        "policy": str(scenario.policy),
        "policy_kwargs": _pairs_to_json(scenario.policy_kwargs),
        "imbalance": float(scenario.imbalance),
        "arrivals": _arrivals_to_json(scenario.arrivals),
    }


def _scenario_from_json(payload: Mapping[str, Any] | None) -> ScenarioSpec | None:
    if payload is None:
        return None
    return ScenarioSpec(
        stations=tuple(
            _station_from_json(station) for station in payload["stations"]
        ),
        policy=str(payload.get("policy", "static")),
        policy_kwargs=_pairs_from_json(payload.get("policy_kwargs", ())),
        imbalance=float(payload.get("imbalance", 0.0)),
        arrivals=_arrivals_from_json(payload.get("arrivals")),
    )


def config_to_json(config: SimulationConfig) -> dict[str, Any]:
    """Encode one simulation point losslessly as JSON-safe data."""
    return {
        "workstations": int(config.workstations),
        "task_demand": float(config.task_demand),
        "owner": _owner_to_json(config.owner),
        "num_jobs": int(config.num_jobs),
        "num_batches": int(config.num_batches),
        "confidence": float(config.confidence),
        "seed": int(config.seed),
        "owner_demand_kind": str(config.owner_demand_kind),
        "owner_demand_kwargs": {
            str(name): float(value)
            for name, value in sorted(config.owner_demand_kwargs.items())
        },
        "imbalance": float(config.imbalance),
        "scenario": _scenario_to_json(config.scenario),
    }


def config_from_json(payload: Mapping[str, Any]) -> SimulationConfig:
    """Decode a point encoded by :func:`config_to_json` (validating it)."""
    return SimulationConfig(
        workstations=int(payload["workstations"]),
        task_demand=float(payload["task_demand"]),
        owner=_owner_from_json(payload["owner"]),
        num_jobs=int(payload.get("num_jobs", 2000)),
        num_batches=int(payload.get("num_batches", 20)),
        confidence=float(payload.get("confidence", 0.90)),
        seed=int(payload.get("seed", 0)),
        owner_demand_kind=str(payload.get("owner_demand_kind", "deterministic")),
        owner_demand_kwargs={
            str(name): float(value)
            for name, value in dict(payload.get("owner_demand_kwargs", {})).items()
        },
        imbalance=float(payload.get("imbalance", 0.0)),
        scenario=_scenario_from_json(payload.get("scenario")),
    )


#: Grid-override keys forwarded to :func:`~repro.engine.grids.build_grid`
#: whose JSON lists must become tuples (`build_grid` accepts sequences, but
#: tuples keep the resolved overrides hashable and repr-stable).
_SEQUENCE_OVERRIDES = frozenset(
    {
        "workstation_counts",
        "utilizations",
        "concentration_levels",
        "policies",
        "arrival_rates",
        "job_widths",
        "admission_policies",
    }
)


@dataclass(frozen=True)
class SweepJobSpec:
    """One submission: what to simulate and how to execute it.

    Attributes
    ----------
    kind:
        ``"grid"`` (a named figure grid plus ``build_grid`` overrides) or
        ``"points"`` (an explicit batch of encoded configs plus a backend
        mode).
    grid:
        Grid name for the ``grid`` kind (see
        :data:`repro.engine.GRID_NAMES`).
    overrides:
        JSON-safe keyword overrides forwarded to ``build_grid`` (``seed``,
        ``num_jobs``, axis vectors, ...).
    mode:
        Backend mode for the ``points`` kind; the ``grid`` kind always runs
        the grid's declared backend.
    points:
        The raw config batch for the ``points`` kind.
    executor:
        One of :data:`EXECUTORS` (default ``"sweep"``, the bitwise path).
    """

    kind: str
    grid: str | None = None
    overrides: dict[str, Any] = field(default_factory=dict)
    mode: str | None = None
    points: tuple[SimulationConfig, ...] = ()
    executor: str = "sweep"

    def __post_init__(self) -> None:
        if self.kind not in ("grid", "points"):
            raise ValueError(
                f"unknown submission kind {self.kind!r}; expected 'grid' or 'points'"
            )
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; expected one of {EXECUTORS}"
            )
        if self.kind == "grid":
            if not self.grid:
                raise ValueError("a grid submission needs a grid name")
            if self.points:
                raise ValueError("a grid submission takes no raw points")
            if self.mode is not None:
                raise ValueError(
                    "a grid submission runs the grid's declared backend; "
                    "drop 'mode' or submit raw points"
                )
        else:
            if self.grid is not None or self.overrides:
                raise ValueError(
                    "a points submission takes no grid name or overrides"
                )
            if not self.points:
                raise ValueError("a points submission needs at least one config")
            if not self.mode:
                raise ValueError("a points submission needs a backend mode")
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "overrides", dict(self.overrides))

    @classmethod
    def for_grid(
        cls,
        grid: str,
        overrides: Mapping[str, Any] | None = None,
        executor: str = "sweep",
    ) -> "SweepJobSpec":
        """A named-grid submission (overrides as ``build_grid`` kwargs)."""
        return cls(
            kind="grid",
            grid=str(grid),
            overrides=dict(overrides or {}),
            executor=executor,
        )

    @classmethod
    def for_points(
        cls,
        points: Sequence[SimulationConfig],
        mode: str,
        executor: str = "sweep",
    ) -> "SweepJobSpec":
        """A raw batch submission of explicit simulation points."""
        return cls(
            kind="points", points=tuple(points), mode=str(mode), executor=executor
        )

    def resolve(self) -> tuple[list[SimulationConfig], str]:
        """Materialise the submission into ``(configs, backend mode)``.

        Raises ``KeyError``/``ValueError`` on an unknown grid, a bad
        override, or an invalid config — submission-time validation, so a
        client learns about a bad job synchronously instead of through a
        ``failed`` status.
        """
        if self.kind == "grid":
            assert self.grid is not None
            overrides = {
                key: tuple(value) if key in _SEQUENCE_OVERRIDES else value
                for key, value in self.overrides.items()
            }
            return build_grid(self.grid, **overrides), grid_mode(self.grid)
        assert self.mode is not None
        return list(self.points), self.mode

    def to_json(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"kind": self.kind, "executor": self.executor}
        if self.kind == "grid":
            payload["grid"] = self.grid
            payload["overrides"] = dict(self.overrides)
        else:
            payload["mode"] = self.mode
            payload["points"] = [config_to_json(config) for config in self.points]
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "SweepJobSpec":
        """Decode a submission; the kind may be inferred from its keys."""
        kind = payload.get("kind")
        if kind is None:
            kind = "points" if "points" in payload else "grid"
        if kind == "grid":
            return cls(
                kind="grid",
                grid=payload.get("grid"),
                overrides=dict(payload.get("overrides", {})),
                executor=str(payload.get("executor", "sweep")),
            )
        return cls(
            kind="points",
            points=tuple(
                config_from_json(point) for point in payload.get("points", ())
            ),
            mode=payload.get("mode"),
            executor=str(payload.get("executor", "sweep")),
        )


def spec_digest(spec: SweepJobSpec) -> str:
    """Stable hex digest of a submission's canonical JSON form.

    Used as the content half of a job id, so resubmitting the same work is
    visibly the same submission in job listings.
    """
    blob = json.dumps(spec.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
