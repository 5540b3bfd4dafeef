"""Backend protocol, registry and the configuration/result data model.

A *simulation backend* is one strategy for estimating the paper's cluster
model: the faithful discrete-time walk, the vectorised Monte-Carlo sampler,
the process-oriented event-driven cluster, or the open-system (job-stream)
variant.  This module defines everything the rest of the engine needs to use
a backend without knowing which one it is:

:class:`SimulationConfig` / :class:`SimulationResult`
    The shared configuration and the closed-system result flavour (the
    open-system flavour lives with its backend in
    :mod:`repro.backends.open_system`).

:class:`SimulationBackend`
    The abstract base every backend subclasses: a registry ``name`` and a
    ``run()`` method returning one of the two result classes.  The result
    dataclass fields are the on-disk layout
    (:func:`repro.engine.cache.result_arrays`), so a backend writes no
    serialization code.

:func:`register_backend` / :func:`get_backend` / :func:`backend_names`
    The backend registry.  Every layer — :func:`run_simulation`, the
    sweep runner, the result cache, the grid tables, the CLI ``--mode``
    choices — resolves backends through it, so registering a new backend
    makes it available end-to-end.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from ..cluster.admission import make_admission_policy
from ..cluster.policies import make_policy
from ..core.params import (
    STATIC_POLICY,
    ModelInputs,
    OwnerSpec,
    ScenarioSpec,
    StationSpec,
    request_probability_to_utilization,
)
from ..desim import StreamRegistry
from ..stats import BatchMeansResult, batch_means_interval

__all__ = [
    "MAX_POINT_TASKS",
    "MAX_WORKSTATIONS",
    "SimulationConfig",
    "SimulationResult",
    "SimulationBackend",
    "register_backend",
    "get_backend",
    "backend_names",
    "run_simulation",
]


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration shared by all cluster-simulation back-ends.

    Without a ``scenario``, this is the paper's homogeneous model (every
    workstation shares ``owner``, the static one-task-per-station discipline)
    and the config acts as a thin convenience constructor over
    :class:`~repro.core.params.ScenarioSpec` — :attr:`effective_scenario`
    builds the equivalent ``W``-identical-stations scenario, and the back-ends
    consume only that.  Passing an explicit
    :class:`~repro.core.params.ScenarioSpec` unlocks heterogeneous owners and
    non-static scheduling policies on the same back-ends.

    Attributes
    ----------
    workstations:
        Number of workstations ``W`` (must match the scenario, if given).
    task_demand:
        Per-task demand ``T`` in time units.
    owner:
        Analytical owner spec (demand ``O`` plus utilization / ``P``).  With a
        heterogeneous scenario this is only the representative (first)
        station's owner; reporting uses the scenario's per-station specs.
    num_jobs:
        Number of job completions to sample.  The paper uses
        20 batches x 1000 samples = 20 000.
    num_batches:
        Batches for the batch-means confidence interval (paper: 20).
    confidence:
        Confidence level for the interval (paper: 0.90).
    seed:
        Seed for the reproducible random streams.
    owner_demand_kind:
        Distribution family for the owner demand in the event-driven backend
        ("deterministic", "exponential", "hyperexponential", ...).
    owner_demand_kwargs:
        Extra parameters for the demand distribution (e.g. ``squared_cv``).
    imbalance:
        Relative task-demand imbalance for the event-driven backend
        (0 = perfectly balanced, the paper's assumption).
    scenario:
        Optional generalized scenario (per-station owners, scheduling
        policy).  ``None`` means the homogeneous scenario implied by the
        fields above.
    """

    workstations: int
    task_demand: float
    owner: OwnerSpec
    num_jobs: int = 2000
    num_batches: int = 20
    confidence: float = 0.90
    seed: int = 0
    owner_demand_kind: str = "deterministic"
    owner_demand_kwargs: dict[str, float] = field(default_factory=dict)
    imbalance: float = 0.0
    scenario: ScenarioSpec | None = None

    def __post_init__(self) -> None:
        if self.workstations < 1:
            raise ValueError(f"workstations must be >= 1, got {self.workstations!r}")
        if self.task_demand <= 0:
            raise ValueError(f"task_demand must be positive, got {self.task_demand!r}")
        if self.num_jobs < 1:
            raise ValueError(f"num_jobs must be >= 1, got {self.num_jobs!r}")
        if self.num_batches < 2:
            raise ValueError(f"num_batches must be >= 2, got {self.num_batches!r}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence!r}")
        if self.seed < 0:  # numpy's SeedSequence takes no negative entropy
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if self.num_jobs < self.num_batches and not (
            self.scenario is not None and self.scenario.is_open
        ):
            # Closed back-ends always form a batch-means CI over num_jobs
            # observations; the open-system backend degrades to a point
            # estimate (interval = None) instead, so a short job stream —
            # e.g. the single-arrival reduction scenario — stays expressible.
            raise ValueError(
                f"num_jobs ({self.num_jobs}) must be >= num_batches "
                f"({self.num_batches})"
            )
        if not 0.0 <= self.imbalance < 1.0:
            raise ValueError(f"imbalance must be in [0, 1), got {self.imbalance!r}")
        if self.scenario is None:
            # the station every workstation of the homogeneous scenario
            # copies; building it checks the owner demand distribution
            StationSpec(
                self.owner,
                self.owner_demand_kind,
                tuple(self.owner_demand_kwargs.items()),
            )
        else:
            if self.scenario.workstations != self.workstations:
                raise ValueError(
                    f"scenario has {self.scenario.workstations} stations but "
                    f"workstations={self.workstations}; build the config via "
                    "SimulationConfig.from_scenario to keep them in sync"
                )
            if self.imbalance != self.scenario.imbalance:
                if self.imbalance != 0.0:
                    raise ValueError(
                        f"conflicting imbalance: config says {self.imbalance!r}, "
                        f"scenario says {self.scenario.imbalance!r}"
                    )
                object.__setattr__(self, "imbalance", self.scenario.imbalance)
            # built by the factories every executor calls: refused here, not mid-run
            make_policy(self.scenario.policy, **dict(self.scenario.policy_kwargs))
            arrivals = self.scenario.arrivals
            if arrivals is not None:
                make_admission_policy(
                    arrivals.admission_policy, **dict(arrivals.admission_kwargs)
                )

    @classmethod
    def from_scenario(
        cls,
        scenario: ScenarioSpec,
        task_demand: float,
        *,
        num_jobs: int = 2000,
        num_batches: int = 20,
        confidence: float = 0.90,
        seed: int = 0,
    ) -> "SimulationConfig":
        """Build a config around an explicit scenario.

        The legacy homogeneous fields are filled from the scenario's first
        station so rendering helpers keep working; the back-ends read the
        scenario itself.
        """
        first = scenario.stations[0]
        return cls(
            workstations=scenario.workstations,
            task_demand=task_demand,
            owner=first.owner,
            num_jobs=num_jobs,
            num_batches=num_batches,
            confidence=confidence,
            seed=seed,
            owner_demand_kind=first.demand_kind,
            owner_demand_kwargs=dict(first.demand_kwargs),
            imbalance=scenario.imbalance,
            scenario=scenario,
        )

    @property
    def effective_scenario(self) -> ScenarioSpec:
        """The scenario the back-ends execute.

        Either the explicit :attr:`scenario`, or the homogeneous
        ``W``-identical-stations scenario implied by the legacy fields.
        """
        if self.scenario is not None:
            return self.scenario
        return ScenarioSpec.homogeneous(
            self.workstations,
            self.owner,
            demand_kind=self.owner_demand_kind,
            demand_kwargs=self.owner_demand_kwargs,
            policy=STATIC_POLICY,
            imbalance=self.imbalance,
        )

    @property
    def job_demand(self) -> float:
        """Total job demand ``J = T * W``."""
        return self.task_demand * self.workstations

    @property
    def nominal_owner_utilization(self) -> float:
        """Nominal owner utilization ``U`` used for reporting and metrics.

        For a heterogeneous scenario this is the cluster-average utilization
        (the convention of the analytical extension in
        :mod:`repro.core.heterogeneous`); for the homogeneous case it is the
        owner's ``U``, derived via Eq. 8 when the spec was given as a request
        probability so a probability-specified owner is never silently
        treated as ``U = 0``.
        """
        if self.scenario is not None and not self.scenario.is_homogeneous:
            return self.scenario.mean_utilization
        if self.owner.utilization is not None:
            return float(self.owner.utilization)
        assert self.owner.request_probability is not None
        return request_probability_to_utilization(
            self.owner.request_probability, self.owner.demand
        )

    @property
    def model_inputs(self) -> ModelInputs:
        """The analytical-model inputs corresponding to this configuration.

        Only defined for homogeneous scenarios — the paper's closed forms
        take a single ``(O, P)`` pair.  Heterogeneous scenarios are evaluated
        against :mod:`repro.core.heterogeneous` instead.
        """
        if self.scenario is not None and not self.scenario.is_homogeneous:
            raise ValueError(
                "model_inputs is only defined for homogeneous scenarios; use "
                "repro.core.heterogeneous for per-station owner specs"
            )
        assert self.owner.request_probability is not None
        return ModelInputs(
            task_demand=self.task_demand,
            workstations=self.workstations,
            owner_demand=self.owner.demand,
            request_probability=self.owner.request_probability,
        )


@dataclass(frozen=True)
class SimulationResult:
    """Estimates produced by one closed-system simulation run.

    The fields after ``config`` and ``mode`` are the point's raw samples,
    and also its cache entry, in declaration order; every estimate is
    derived from them.
    """

    config: SimulationConfig
    mode: str
    job_times: np.ndarray
    task_times: np.ndarray
    measured_owner_utilization: float | None = None

    @cached_property
    def job_time_interval(self) -> BatchMeansResult:
        """Batch-means CI over the job times (the paper's 20 x 1000 scheme)."""
        return batch_means_interval(
            self.job_times, self.config.num_batches, self.config.confidence
        )

    @property
    def mean_job_time(self) -> float:
        """Point estimate of ``E_j``."""
        return float(np.mean(self.job_times))

    @property
    def mean_task_time(self) -> float:
        """Point estimate of ``E_t``."""
        return float(np.mean(self.task_times))

    @property
    def num_jobs(self) -> int:
        return int(self.job_times.size)

    def speedup(self) -> float:
        """Measured speedup ``J / mean job time``."""
        return self.config.job_demand / self.mean_job_time

    def weighted_efficiency(self) -> float:
        """Measured weighted efficiency.

        Uses the owner utilization the simulation actually experienced: the
        event-driven backend reports a measured value, which is preferred;
        otherwise the nominal ``U`` is derived from the owner spec (via Eq. 8
        when the spec was given as a request probability, so a
        probability-specified owner is never silently treated as ``U = 0``).
        """
        u = (
            self.measured_owner_utilization
            if self.measured_owner_utilization is not None
            else self.config.nominal_owner_utilization
        )
        return self.config.job_demand / (
            (1.0 - u) * self.mean_job_time * self.config.workstations
        )

    def summary(self) -> str:
        ci = self.job_time_interval.interval
        scenario = self.config.effective_scenario
        extras = ""
        if not scenario.is_homogeneous:
            extras += f" U_max={scenario.max_utilization:.3f}"
        if scenario.policy != STATIC_POLICY:
            extras += f" policy={scenario.policy}"
        return (
            f"[{self.mode}] W={self.config.workstations} T={self.config.task_demand} "
            f"U={self.config.nominal_owner_utilization:.3f}{extras}: "
            f"E_t≈{self.mean_task_time:.2f}, E_j≈{self.mean_job_time:.2f} "
            f"± {ci.half_width:.2f} ({ci.confidence:.0%} CI, "
            f"{self.num_jobs} jobs)"
        )


# -- shared backend guards -------------------------------------------------


def _static_scenario(config: SimulationConfig, mode: str) -> None:
    """Refuse a scenario that a model-faithful (discrete) backend cannot run.

    The discrete-time walk and the Monte-Carlo sampler implement the paper's
    closed-form model, which has no notion of work redistribution — only the
    static one-task-per-station policy is expressible.  (Per-station *owners*
    are fine: the model's job time is the max of independent, not necessarily
    identically distributed, task times.)  As with the homogeneous config,
    these back-ends use each owner's mean demand; ``demand_kind`` shapes only
    the event-driven backend — except ``"trace"``, which has no analytical
    owner at all and is rejected here.
    """
    scenario = config.effective_scenario
    if scenario.policy != STATIC_POLICY:
        raise ValueError(
            f"the {mode} backend models the paper's static one-task-per-"
            f"station discipline; scheduling policy {scenario.policy!r} "
            "requires the event-driven backend"
        )
    for station in scenario.stations:
        if station.demand_kind == "trace":
            raise ValueError(
                f"the {mode} backend cannot replay recorded owner traces; "
                "trace-driven stations require the event-driven backend"
            )
    _reject_open_scenario(scenario, mode)


def _reject_open_scenario(scenario: ScenarioSpec, mode: str) -> None:
    """Refuse to run an open (job-stream) scenario on a closed backend."""
    if scenario.is_open:
        raise ValueError(
            f"the {mode} backend runs the paper's closed system (one job at a "
            "time); a scenario with a job-arrival process requires the "
            "'open-system' mode"
        )


#: The largest binomial trial count numpy draws.
_MAX_TRIALS = 2**63 - 1

#: Most task times (``num_jobs * W``) one submitted point may ask for, 160 MB
#: of float64: ten times the largest registered default point
#: (``validation``, 20 000 jobs on 100 workstations).  The service refuses a
#: larger point at submission (:meth:`repro.service.SweepJobSpec.resolve`),
#: and :func:`repro.engine.build_grid` before it builds a station.  It also
#: bounds the ``monte-carlo-max`` backend's inverse-CDF tables.
MAX_POINT_TASKS = 20_000_000

#: Most workstations one submitted point may have: 100 times the largest
#: ``W`` of the paper and of every registered grid.  A point's fingerprint
#: and a scenario grid's walk build one station record per workstation.
#: Refused where :data:`MAX_POINT_TASKS` is.
MAX_WORKSTATIONS = 10_000


def _integral_task_demand(task_demand: float, mode: str) -> None:
    """Validate that a discrete backend received an integer task demand.

    The discrete-time walk and the Monte-Carlo sampler treat ``T`` as the
    binomial trial count, so a fractional demand cannot be honoured — and
    silently rounding it (to 0 in the worst case) distorts results without
    warning.  The event-driven backend and the analytical closed forms accept
    fractional ``T``; use those (or :class:`~repro.core.params.TaskRounding`)
    for non-integral demands.  numpy draws a binomial of an int64 trial
    count, so a larger ``T`` is refused too.
    """
    if not float(task_demand).is_integer():
        raise ValueError(
            f"the {mode} backend requires an integral task_demand (it is the "
            f"binomial trial count), got {task_demand!r}; round it explicitly "
            "via TaskRounding or use the event-driven backend"
        )
    if int(task_demand) > _MAX_TRIALS:
        raise ValueError(
            f"the {mode} backend draws task_demand as an int64 binomial trial "
            f"count, at most {_MAX_TRIALS}; got {task_demand!r}"
        )


# -- backend protocol and registry -----------------------------------------


class SimulationBackend(abc.ABC):
    """Abstract base of every simulation backend.

    Subclasses set :attr:`name`, the registry key that results carry as
    their ``mode``, and implement :meth:`run`.  A config the backend cannot
    simulate is refused, with a ``ValueError``, by :meth:`check`, which
    building a backend runs first.
    """

    #: Registry key.
    name: ClassVar[str]

    def __init__(self, config: SimulationConfig) -> None:
        self.check(config)
        self.config = config
        self._streams = StreamRegistry(config.seed)

    @classmethod
    def check(cls, config: SimulationConfig) -> None:
        """Raise ``ValueError`` if this backend cannot simulate ``config``.

        Draws nothing and builds no stream, so a caller can refuse a point
        before anything runs: the sweep service checks every point of a
        submission before it mints a job id
        (:meth:`repro.service.SweepJobSpec.resolve`).  The base accepts
        every config.
        """

    @abc.abstractmethod
    def run(self):
        """Execute the simulation and return this backend's result flavour."""


class _ClosedFormBackend(SimulationBackend):
    """A backend of the paper's closed-form model: it runs a static scenario
    (:func:`_static_scenario`) with an integral task demand, the binomial
    trial count (:func:`_integral_task_demand`)."""

    @classmethod
    def check(cls, config: SimulationConfig) -> None:
        _static_scenario(config, cls.name)
        _integral_task_demand(config.task_demand, cls.name)


_REGISTRY: dict[str, type[SimulationBackend]] = {}


def register_backend(
    cls: type[SimulationBackend] | None = None, *, replace: bool = False
):
    """Register a backend class under its :attr:`~SimulationBackend.name`.

    Usable as a plain decorator (``@register_backend``) or with arguments
    (``@register_backend(replace=True)`` to override an existing entry, e.g.
    an instrumented test double).  Returns the class unchanged.
    """

    def _register(backend: type[SimulationBackend]) -> type[SimulationBackend]:
        name = getattr(backend, "name", None)
        if not name or not isinstance(name, str):
            raise ValueError(
                f"backend {backend!r} must define a non-empty string 'name'"
            )
        if not (isinstance(backend, type) and issubclass(backend, SimulationBackend)):
            raise TypeError(
                f"backend {backend!r} must subclass SimulationBackend"
            )
        if not replace and name in _REGISTRY and _REGISTRY[name] is not backend:
            raise ValueError(
                f"a backend named {name!r} is already registered "
                f"({_REGISTRY[name]!r}); pass replace=True to override it"
            )
        _REGISTRY[name] = backend
        return backend

    if cls is None:
        return _register
    return _register(cls)


def get_backend(mode: str) -> type[SimulationBackend]:
    """Resolve a backend class by registry name.

    Raises ``ValueError`` (listing the known names) for an unregistered mode
    — the error every dispatching layer surfaces for a bad ``--mode``.
    """
    try:
        return _REGISTRY[mode]
    except KeyError:
        raise ValueError(
            f"unknown simulation mode {mode!r}; expected one of {sorted(_REGISTRY)}"
        ) from None


def backend_names() -> tuple[str, ...]:
    """Names of all registered backends, in registration order."""
    return tuple(_REGISTRY)


def run_simulation(config: SimulationConfig, mode: str = "monte-carlo"):
    """Run one simulation with the chosen back-end (registry dispatch)."""
    return get_backend(mode)(config).run()
