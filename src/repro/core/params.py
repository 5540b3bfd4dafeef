"""Model parameters and notation for the non-dedicated distributed-computing model.

This module encodes Table 1 of Leutenegger & Sun (1993) as typed, validated
dataclasses.  The notation used throughout the library mirrors the paper:

=========  =====================================================================
Symbol     Meaning
=========  =====================================================================
``J``      Total demand (computing time units) of the parallel job.
``W``      Number of workstations in the system (one parallel task per node).
``T``      Demand of one parallel task, ``T = J / W``.
``O``      Demand of one workstation-owner process (units of time).
``U``      Utilization of a workstation by its owner.
``P``      Probability that the owner requests the processor after any given
           unit of parallel work (geometric think time with mean ``1/P``).
``E_t``    Mean expected task completion time.
``E_j``    Mean expected job completion time.
=========  =====================================================================

The owner utilization and request probability are linked by Eq. (8) of the
paper::

    U = O / (O + 1/P)        <=>        P = U / (O * (1 - U))

Users normally specify the owner load by utilization (as the paper's figures
do) and let the library derive ``P``; both directions are supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from ..desim import make_variate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (workload uses core)
    from ..workload import OwnerActivityTrace

__all__ = [
    "TaskRounding",
    "OwnerSpec",
    "StationSpec",
    "JobClassSpec",
    "JobArrivalSpec",
    "ScenarioSpec",
    "STATIC_POLICY",
    "FCFS_ADMISSION",
    "JobSpec",
    "SystemSpec",
    "ModelInputs",
    "utilization_to_request_probability",
    "request_probability_to_utilization",
    "split_job_demand",
]

#: Name of the paper's task-scheduling discipline (one statically assigned
#: task per workstation).  The canonical policy names live in
#: :mod:`repro.cluster.policies`; this one is needed by the core layer because
#: the model-faithful (discrete) simulation back-ends support only it.
STATIC_POLICY = "static"


class TaskRounding(str, Enum):
    """Policy for mapping a possibly fractional per-task demand onto the
    integer-valued discrete-time model.

    The analytical model of the paper is a discrete-time model: the owner may
    request the processor after every *unit* of parallel work, so the task
    demand ``T`` enters the binomial distribution as an integer trial count.
    When ``J`` is not divisible by ``W`` the per-task demand ``J / W`` is
    fractional and a policy is needed:

    ``ROUND``
        Round to the nearest integer (minimum 1).  This is the default and
        matches how the paper's figures are generated for ``J = 1000`` with
        arbitrary ``W``.
    ``FLOOR`` / ``CEIL``
        Round down / up (minimum 1).
    ``INTERPOLATE``
        Evaluate the model at ``floor(T)`` and ``ceil(T)`` and linearly blend
        the two results by the fractional part.  This produces smooth curves
        for dense sweeps of ``W``.
    """

    ROUND = "round"
    FLOOR = "floor"
    CEIL = "ceil"
    INTERPOLATE = "interpolate"


def utilization_to_request_probability(utilization: float, owner_demand: float) -> float:
    """Convert owner utilization ``U`` into the per-unit request probability ``P``.

    Inverts Eq. (8) of the paper, ``U = O / (O + 1/P)``:

    >>> round(utilization_to_request_probability(0.01, 10.0), 6)
    0.00101

    Parameters
    ----------
    utilization:
        Owner utilization ``U`` in ``[0, 1)``.
    owner_demand:
        Owner process demand ``O`` (> 0).

    Returns
    -------
    float
        Request probability ``P`` in ``[0, 1]``.  ``U = 0`` maps to ``P = 0``.
    """
    if not 0.0 <= utilization < 1.0:
        raise ValueError(f"utilization must be in [0, 1), got {utilization!r}")
    if owner_demand <= 0.0:
        raise ValueError(f"owner_demand must be positive, got {owner_demand!r}")
    if utilization == 0.0:
        return 0.0
    p = utilization / (owner_demand * (1.0 - utilization))
    return min(p, 1.0)


def request_probability_to_utilization(request_probability: float, owner_demand: float) -> float:
    """Convert the per-unit request probability ``P`` into owner utilization ``U``.

    Implements Eq. (8) of the paper, ``U = O / (O + 1/P)``.

    >>> round(request_probability_to_utilization(0.00101010101, 10.0), 4)
    0.01
    """
    if not 0.0 <= request_probability <= 1.0:
        raise ValueError(
            f"request_probability must be in [0, 1], got {request_probability!r}"
        )
    if owner_demand <= 0.0:
        raise ValueError(f"owner_demand must be positive, got {owner_demand!r}")
    if request_probability == 0.0:
        return 0.0
    return owner_demand / (owner_demand + 1.0 / request_probability)


def split_job_demand(
    job_demand: float,
    workstations: int,
    rounding: TaskRounding | str = TaskRounding.ROUND,
) -> float:
    """Return the per-task demand ``T = J / W`` under the given rounding policy.

    For :attr:`TaskRounding.INTERPOLATE` the *fractional* value is returned
    unchanged — the analytical routines interpolate internally.
    """
    if workstations < 1:
        raise ValueError(f"workstations must be >= 1, got {workstations!r}")
    if job_demand <= 0:
        raise ValueError(f"job_demand must be positive, got {job_demand!r}")
    rounding = TaskRounding(rounding)
    raw = job_demand / workstations
    if rounding is TaskRounding.INTERPOLATE:
        return raw
    if rounding is TaskRounding.FLOOR:
        value = math.floor(raw)
    elif rounding is TaskRounding.CEIL:
        value = math.ceil(raw)
    else:
        value = round(raw)
    return float(max(1, value))


@dataclass(frozen=True)
class OwnerSpec:
    """Workstation-owner behaviour.

    The owner alternates between *thinking* (idle, geometrically distributed
    with mean ``1/P`` time units) and *using* the workstation for ``demand``
    units.  Owner processes have preemptive priority over parallel tasks.

    Give ``utilization`` or ``request_probability`` and the other is derived
    via Eq. (8).  Both may be given only as a pair that Eq. (8) maps one onto
    the other exactly — which is what every spec stores, so a stored spec
    rebuilds from its own fields — and any other pair is rejected: the
    back-ends sample ``P`` while reporting reads ``U``, so the two must
    never disagree.

    Attributes
    ----------
    demand:
        Owner-process service demand ``O`` in time units (default 10, the
        value used throughout the paper's analysis section).
    utilization:
        Long-run fraction of time the owner keeps the workstation busy.
    request_probability:
        Probability ``P`` that the owner requests the CPU after a unit of
        parallel work.
    """

    demand: float = 10.0
    utilization: float | None = None
    request_probability: float | None = None

    def __post_init__(self) -> None:
        if self.demand <= 0:
            raise ValueError(f"owner demand must be positive, got {self.demand!r}")
        if self.utilization is None:
            if self.request_probability is None:
                raise ValueError(
                    "one of utilization / request_probability must be provided"
                )
            u = request_probability_to_utilization(self.request_probability, self.demand)
            object.__setattr__(self, "utilization", u)
        elif self.request_probability is None:
            p = utilization_to_request_probability(self.utilization, self.demand)
            object.__setattr__(self, "request_probability", p)
        elif (
            utilization_to_request_probability(self.utilization, self.demand)
            != self.request_probability
            and request_probability_to_utilization(self.request_probability, self.demand)
            != self.utilization
        ):
            raise ValueError(
                f"utilization {self.utilization!r} and request_probability "
                f"{self.request_probability!r} disagree under Eq. 8 for owner "
                f"demand {self.demand!r}; give only one of them"
            )

    @classmethod
    def from_utilization(cls, utilization: float, demand: float = 10.0) -> "OwnerSpec":
        """Build an owner spec from a target utilization (paper's usual input)."""
        return cls(demand=demand, utilization=utilization)

    @classmethod
    def from_request_probability(cls, p: float, demand: float = 10.0) -> "OwnerSpec":
        """Build an owner spec from the raw request probability ``P``."""
        return cls(demand=demand, request_probability=p)

    @classmethod
    def idle(cls, demand: float = 10.0) -> "OwnerSpec":
        """An owner that never touches the workstation (dedicated node)."""
        return cls(demand=demand, utilization=0.0)

    @property
    def mean_think_time(self) -> float:
        """Mean owner think time ``1/P`` (``inf`` for an idle owner)."""
        assert self.request_probability is not None
        if self.request_probability == 0.0:
            return math.inf
        return 1.0 / self.request_probability

    def with_utilization(self, utilization: float) -> "OwnerSpec":
        """Return a copy with a different utilization (same demand)."""
        return OwnerSpec(demand=self.demand, utilization=utilization)


def _freeze_kwargs(
    kwargs: Mapping[str, float] | Iterable[tuple[str, float]] | None,
) -> tuple[tuple[str, float], ...]:
    """Canonicalise keyword parameters into a hashable, order-stable form.

    Accepts a mapping or an iterable of pairs and returns sorted
    ``(name, value)`` tuples so two specs built from differently ordered
    dictionaries compare (and fingerprint) equal.
    """
    if kwargs is None:
        return ()
    items = kwargs.items() if isinstance(kwargs, Mapping) else kwargs
    return tuple(sorted((str(k), float(v)) for k, v in items))


@dataclass(frozen=True)
class StationSpec:
    """One workstation of a (possibly heterogeneous) scenario.

    Attributes
    ----------
    owner:
        The analytical owner spec of this workstation (demand ``O_i`` plus
        utilization / request probability ``P_i``).
    demand_kind:
        Distribution family of the owner demand in the event-driven backend
        ("deterministic", "exponential", "hyperexponential", ...).  The
        model-faithful discrete back-ends always use the mean demand, exactly
        as they did for the homogeneous ``SimulationConfig``.  The special
        kind ``"trace"`` replays a recorded activity trace instead of
        sampling distributions (event-driven back-ends only) and requires
        :attr:`trace`.
    demand_kwargs:
        Extra distribution parameters (e.g. ``squared_cv``), stored as sorted
        ``(name, value)`` pairs so the spec stays hashable and fingerprints
        deterministically; dicts are accepted and canonicalised.
    trace:
        Recorded :class:`~repro.workload.OwnerActivityTrace` replayed by the
        event-driven back-ends when ``demand_kind == "trace"`` (``None``
        otherwise).  The trace is a frozen value object (horizon plus ordered
        busy intervals), so the spec stays hashable and fingerprints cover
        the replayed activity itself rather than its fitted summary.
    """

    owner: OwnerSpec
    demand_kind: str = "deterministic"
    demand_kwargs: tuple[tuple[str, float], ...] = ()
    trace: "OwnerActivityTrace | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "demand_kwargs", _freeze_kwargs(self.demand_kwargs))
        if self.demand_kind == "trace":
            if self.trace is None:
                raise ValueError(
                    "demand_kind 'trace' needs a recorded trace; pass "
                    "trace=OwnerActivityTrace(...) or build the spec via "
                    "StationSpec.from_trace"
                )
            for attr in ("horizon", "busy_intervals"):
                if not hasattr(self.trace, attr):
                    raise TypeError(
                        "trace must be an OwnerActivityTrace-like object with "
                        f"'horizon' and 'busy_intervals'; got {self.trace!r}"
                    )
            busy = sum(end - start for start, end in self.trace.busy_intervals)
            if self.trace.horizon > 0 and busy >= float(self.trace.horizon):
                # A fully busy owner would preempt the parallel task forever;
                # guard here (not only in from_trace) so a directly built
                # spec cannot hang the event-driven backend.
                raise ValueError(
                    "trace keeps the owner busy for its whole horizon "
                    "(utilization >= 1); no parallel work could ever run"
                )
            if self.demand_kwargs:
                raise ValueError(
                    "demand_kwargs do not apply to a trace replay; got "
                    f"{self.demand_kwargs!r}"
                )
        elif self.trace is not None:
            raise ValueError(
                "a trace only applies to demand_kind='trace', got "
                f"demand_kind={self.demand_kind!r}"
            )
        else:
            # the factory both executors build the owner demand with
            make_variate(
                self.demand_kind, self.owner.demand, **dict(self.demand_kwargs)
            )

    @classmethod
    def from_trace(
        cls, trace: "OwnerActivityTrace", fallback_demand: float = 10.0
    ) -> "StationSpec":
        """A station whose owner replays a recorded activity trace.

        The analytical :class:`OwnerSpec` is derived from the trace's
        measured statistics — mean busy-burst length and measured utilization
        — so reporting and the analytical extensions see the fitted
        equivalent while the event-driven back-ends replay the trace itself.
        ``fallback_demand`` stands in for the mean burst length of a trace
        with no (or only zero-length) bursts.
        """
        bursts = [end - start for start, end in trace.busy_intervals]
        mean_burst = (sum(bursts) / len(bursts)) if bursts else 0.0
        if mean_burst <= 0.0:
            mean_burst = float(fallback_demand)
        utilization = float(trace.utilization)
        if utilization >= 1.0:
            raise ValueError(
                "trace keeps the owner busy for its whole horizon "
                "(utilization >= 1); no parallel work could ever run"
            )
        owner = OwnerSpec(demand=mean_burst, utilization=utilization)
        return cls(owner=owner, demand_kind="trace", trace=trace)

    @property
    def utilization(self) -> float:
        """Owner utilization ``U_i`` of this station."""
        u = self.owner.utilization
        assert u is not None
        return float(u)

    @property
    def request_probability(self) -> float:
        """Owner request probability ``P_i`` of this station."""
        p = self.owner.request_probability
        assert p is not None
        return float(p)


#: Interarrival-process families understood by :class:`JobArrivalSpec`.
#: ``closed`` has no external arrival process at all — every job is submitted
#: by a closed-loop (think-time) source described by a :class:`JobClassSpec`.
ARRIVAL_KINDS: tuple[str, ...] = ("poisson", "deterministic", "trace", "closed")

#: Admission discipline used when no explicit policy is configured (and the
#: only one the classless PR-3 job stream supports).  The full registry lives
#: in :mod:`repro.cluster.admission`.
FCFS_ADMISSION = "fcfs"


@dataclass(frozen=True)
class JobClassSpec:
    """One class of moldable parallel jobs in an open- or closed-loop stream.

    The classless :class:`JobArrivalSpec` describes a single stream of jobs
    that each occupy the *whole* cluster.  Job classes generalize that to
    space sharing: a class requests a width ``w <= W`` and runs on a station
    *subset*, so several jobs occupy disjoint parts of the cluster at once,
    admitted by one of the policies of :mod:`repro.cluster.admission`.

    Attributes
    ----------
    name:
        Class label (unique within one arrival spec); per-class queueing
        metrics are keyed by it.
    width:
        Number of workstations one job of this class occupies (validated
        against the scenario's ``W`` when the simulation runs).
    priority:
        Admission priority (higher = more important).  Only the ``priority``
        admission policy orders by it; FCFS and backfilling ignore it.
    weight:
        Relative share of the *open* arrival stream routed to this class
        (ignored for closed-loop classes).
    population:
        Number of closed-loop sources cycling through this class.  ``0`` (the
        default) makes the class *open*: its jobs come from the spec's
        interarrival process.  A positive population makes it *closed-loop*:
        each source thinks, submits one job, waits for it to complete and
        repeats — the interactive-user model of queueing theory.
    think_time:
        Mean think time of the closed-loop sources (required iff
        ``population > 0``).  ``0`` with the ``"deterministic"`` kind
        submits back to back; the other kinds need a positive mean.
    think_time_kind:
        Distribution family of the think time (``"exponential"``,
        ``"deterministic"``, ...), resolved by
        :func:`repro.desim.make_variate`.
    think_time_kwargs:
        Extra think-time distribution parameters, canonicalised like
        :attr:`StationSpec.demand_kwargs`.
    """

    name: str
    width: int
    priority: int = 0
    weight: float = 1.0
    population: int = 0
    think_time: float | None = None
    think_time_kind: str = "exponential"
    think_time_kwargs: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a job class needs a non-empty name")
        if int(self.width) != self.width or self.width < 1:
            raise ValueError(f"width must be a positive integer, got {self.width!r}")
        object.__setattr__(self, "width", int(self.width))
        if int(self.priority) != self.priority:
            raise ValueError(f"priority must be an integer, got {self.priority!r}")
        object.__setattr__(self, "priority", int(self.priority))
        if not (math.isfinite(self.weight) and self.weight > 0.0):
            raise ValueError(f"weight must be positive and finite, got {self.weight!r}")
        if int(self.population) != self.population or self.population < 0:
            raise ValueError(
                f"population must be a non-negative integer, got {self.population!r}"
            )
        object.__setattr__(self, "population", int(self.population))
        if self.population > 0:
            if self.think_time is None or self.think_time < 0.0:
                raise ValueError(
                    "a closed-loop class (population > 0) needs a think_time >= 0, "
                    f"got {self.think_time!r}"
                )
        elif self.think_time is not None:
            raise ValueError(
                "think_time only applies to closed-loop classes "
                "(set population > 0)"
            )
        if not self.think_time_kind:
            raise ValueError("think_time_kind must be a non-empty name")
        object.__setattr__(
            self, "think_time_kwargs", _freeze_kwargs(self.think_time_kwargs)
        )
        if self.think_time is not None:  # a closed-loop class
            make_variate(
                self.think_time_kind, self.think_time, **dict(self.think_time_kwargs)
            )

    @property
    def is_closed(self) -> bool:
        """Whether this class is driven by closed-loop (think-time) sources."""
        return self.population > 0

    @classmethod
    def open(
        cls, name: str, width: int, *, priority: int = 0, weight: float = 1.0
    ) -> "JobClassSpec":
        """An open class fed by the spec's interarrival process."""
        return cls(name=name, width=width, priority=priority, weight=weight)

    @classmethod
    def closed(
        cls,
        name: str,
        width: int,
        *,
        population: int,
        think_time: float,
        priority: int = 0,
        think_time_kind: str = "exponential",
        think_time_kwargs: Mapping[str, float] | Iterable[tuple[str, float]] | None = None,
    ) -> "JobClassSpec":
        """A closed-loop class of ``population`` think-submit-wait sources."""
        return cls(
            name=name,
            width=width,
            priority=priority,
            population=population,
            think_time=think_time,
            think_time_kind=think_time_kind,
            think_time_kwargs=_freeze_kwargs(think_time_kwargs),
        )


@dataclass(frozen=True)
class JobArrivalSpec:
    """A stream of parallel jobs arriving at the cluster (open-system mode).

    The paper's model is *closed*: one parallel job at a time, run back to
    back.  An arrival spec generalizes a :class:`ScenarioSpec` to an *open*
    system — jobs arrive over time, queue for admission and compete for the
    same non-dedicated workstations — so response time under contention
    (rather than standalone speedup) can be studied.

    Attributes
    ----------
    kind:
        Interarrival-process family: ``"poisson"`` (exponential interarrivals
        with mean ``1/rate``), ``"deterministic"`` (every interarrival exactly
        ``1/rate``) or ``"trace"`` (replay ``interarrivals``, cycling when the
        run needs more arrivals than the trace holds).
    rate:
        Arrival rate ``lambda`` in jobs per unit time (``poisson`` and
        ``deterministic`` kinds).
    interarrivals:
        Recorded interarrival gaps for the ``trace`` kind; the first entry is
        the arrival time of the first job.
    demand_kind:
        Distribution family of the per-job total demand (``"deterministic"``,
        ``"exponential"``, ...); the mean is the scenario's nominal job
        demand ``J``.
    demand_kwargs:
        Extra demand-distribution parameters (e.g. ``squared_cv``), stored in
        the same canonical hashable form as
        :attr:`StationSpec.demand_kwargs`.
    max_concurrent_jobs:
        Admission width: how many jobs may occupy the cluster simultaneously.
        The default 1 is strict FCFS — each job gets the whole cluster, later
        arrivals queue — which makes a 1-station no-owner run an M/M/1 or
        M/D/1 queue exactly.  Mutually exclusive with ``job_classes``
        (per-class widths supersede the shared counter).
    warmup_fraction:
        Fraction of the earliest completed jobs discarded before steady-state
        queueing metrics are computed (warmup truncation for batch means).
    job_classes:
        Optional :class:`JobClassSpec` tuple turning the stream into a
        space-shared mix of moldable jobs (per-class widths, priorities and
        closed-loop sources).  Empty — the default — is the classless PR-3
        stream: every job occupies the whole cluster.
    admission_policy:
        Name of the admission discipline partitioning stations among the
        classed jobs, resolved by
        :func:`repro.cluster.admission.make_admission_policy` (``"fcfs"``,
        ``"easy-backfill"``, ``"priority"``).  Only meaningful with
        ``job_classes``.
    admission_kwargs:
        Admission-policy parameters (e.g. ``preemptive`` for the priority
        policy), canonicalised like :attr:`StationSpec.demand_kwargs`.
    """

    kind: str = "poisson"
    rate: float | None = None
    interarrivals: tuple[float, ...] = ()
    demand_kind: str = "deterministic"
    demand_kwargs: tuple[tuple[str, float], ...] = ()
    max_concurrent_jobs: int = 1
    warmup_fraction: float = 0.1
    job_classes: tuple[JobClassSpec, ...] = ()
    admission_policy: str = FCFS_ADMISSION
    admission_kwargs: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ARRIVAL_KINDS:
            raise ValueError(
                f"unknown arrival kind {self.kind!r}; expected one of {ARRIVAL_KINDS}"
            )
        if self.kind == "closed":
            if self.rate is not None:
                raise ValueError("a closed arrival spec takes no rate")
            if self.interarrivals:
                raise ValueError("a closed arrival spec takes no interarrivals")
        elif self.kind == "trace":
            if self.rate is not None:
                raise ValueError("a trace-driven arrival spec takes no rate")
            gaps = tuple(float(gap) for gap in self.interarrivals)
            if not gaps:
                raise ValueError("a trace-driven arrival spec needs interarrivals")
            for gap in gaps:
                if not math.isfinite(gap) or gap < 0.0:
                    raise ValueError(
                        f"interarrival gaps must be finite and >= 0, got {gap!r}"
                    )
            object.__setattr__(self, "interarrivals", gaps)
        else:
            if self.interarrivals:
                raise ValueError(
                    f"interarrivals only apply to the trace kind, not {self.kind!r}"
                )
            if self.rate is None or not math.isfinite(self.rate) or self.rate <= 0.0:
                raise ValueError(
                    f"{self.kind} arrivals need a positive finite rate, got {self.rate!r}"
                )
            object.__setattr__(self, "rate", float(self.rate))
        if not self.demand_kind:
            raise ValueError("demand_kind must be a non-empty name")
        object.__setattr__(self, "demand_kwargs", _freeze_kwargs(self.demand_kwargs))
        # the real mean is the config's job demand, which is always positive
        make_variate(self.demand_kind, 1.0, **dict(self.demand_kwargs))
        if self.max_concurrent_jobs < 1:
            raise ValueError(
                f"max_concurrent_jobs must be >= 1, got {self.max_concurrent_jobs!r}"
            )
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction!r}"
            )
        object.__setattr__(self, "job_classes", tuple(self.job_classes))
        for job_class in self.job_classes:
            if not isinstance(job_class, JobClassSpec):
                raise TypeError(
                    f"job_classes must be JobClassSpec instances, got {job_class!r}"
                )
        names = [job_class.name for job_class in self.job_classes]
        if len(set(names)) != len(names):
            raise ValueError(f"job class names must be unique, got {names!r}")
        if not self.admission_policy:
            raise ValueError("admission_policy must be a non-empty name")
        object.__setattr__(
            self, "admission_kwargs", _freeze_kwargs(self.admission_kwargs)
        )
        if self.job_classes:
            if self.max_concurrent_jobs != 1:
                raise ValueError(
                    "job_classes and max_concurrent_jobs are mutually exclusive: "
                    "per-class widths supersede the shared admission counter"
                )
        else:
            if self.admission_policy != FCFS_ADMISSION or self.admission_kwargs:
                raise ValueError(
                    "admission policies operate on job classes; set job_classes "
                    "to use a non-default admission_policy"
                )
        if self.kind == "closed":
            if not self.job_classes or not all(
                job_class.is_closed for job_class in self.job_classes
            ):
                raise ValueError(
                    "the closed kind needs job_classes made entirely of "
                    "closed-loop classes (population > 0)"
                )
        elif self.job_classes and not any(
            not job_class.is_closed for job_class in self.job_classes
        ):
            raise ValueError(
                "an arrival process with only closed-loop classes should use "
                "kind='closed' (the interarrival stream would feed no class)"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def poisson(cls, rate: float, **kwargs: Any) -> "JobArrivalSpec":
        """Poisson arrivals at ``rate`` jobs per unit time."""
        return cls(kind="poisson", rate=rate, **kwargs)

    @classmethod
    def deterministic(cls, rate: float, **kwargs: Any) -> "JobArrivalSpec":
        """Evenly spaced arrivals, one every ``1/rate`` time units."""
        return cls(kind="deterministic", rate=rate, **kwargs)

    @classmethod
    def from_trace(
        cls, interarrivals: Sequence[float], **kwargs: Any
    ) -> "JobArrivalSpec":
        """Replay recorded interarrival gaps (cycled if the run is longer)."""
        return cls(kind="trace", interarrivals=tuple(interarrivals), **kwargs)

    @classmethod
    def closed_loop(
        cls, job_classes: Sequence[JobClassSpec], **kwargs: Any
    ) -> "JobArrivalSpec":
        """A purely closed-loop stream: every job comes from a think-time source."""
        return cls(kind="closed", job_classes=tuple(job_classes), **kwargs)

    # -- derived views -----------------------------------------------------

    @property
    def mean_interarrival(self) -> float:
        """Mean gap between consecutive *open* arrivals.

        ``inf`` for the closed kind (there is no external arrival process).
        """
        if self.kind == "closed":
            return math.inf
        if self.kind == "trace":
            return float(sum(self.interarrivals) / len(self.interarrivals))
        assert self.rate is not None
        return 1.0 / self.rate

    @property
    def mean_rate(self) -> float:
        """Long-run *open* arrival rate ``lambda`` (jobs per unit time)."""
        if self.kind == "closed":
            return 0.0
        mean = self.mean_interarrival
        return math.inf if mean == 0.0 else 1.0 / mean

    @property
    def is_space_shared(self) -> bool:
        """Whether jobs carry per-class widths (the admission subsystem runs)."""
        return bool(self.job_classes)

    @property
    def open_class_indices(self) -> tuple[int, ...]:
        """Indices of the classes fed by the open interarrival stream."""
        return tuple(
            index
            for index, job_class in enumerate(self.job_classes)
            if not job_class.is_closed
        )

    @property
    def closed_class_indices(self) -> tuple[int, ...]:
        """Indices of the closed-loop (think-time) classes."""
        return tuple(
            index
            for index, job_class in enumerate(self.job_classes)
            if job_class.is_closed
        )

    @property
    def total_population(self) -> int:
        """Total number of closed-loop sources across all classes."""
        return sum(job_class.population for job_class in self.job_classes)

    def interarrival(self, index: int) -> float | None:
        """Deterministic interarrival of the ``index``-th job, if one exists.

        Returns the gap for the ``deterministic`` and ``trace`` kinds and
        ``None`` for stochastic kinds (the simulator samples those from its
        arrival stream).
        """
        if self.kind == "deterministic":
            assert self.rate is not None
            return 1.0 / self.rate
        if self.kind == "trace":
            return self.interarrivals[index % len(self.interarrivals)]
        return None

    def offered_load(self, service_rate: float) -> float:
        """Offered load ``rho = lambda / mu`` against a given service rate."""
        if service_rate <= 0.0:
            raise ValueError(f"service_rate must be positive, got {service_rate!r}")
        return self.mean_rate / service_rate


@dataclass(frozen=True)
class ScenarioSpec:
    """A simulation scenario: per-workstation owners, placement and scheduling.

    This is the generalised description the simulation back-ends consume.  The
    paper's model is the special case of ``W`` identical stations, a balanced
    task split and the static one-task-per-station policy — which is exactly
    what :class:`~repro.backends.SimulationConfig` builds when no
    scenario is given, so every homogeneous experiment reduces to this layer
    bitwise.

    Attributes
    ----------
    stations:
        One :class:`StationSpec` per workstation (system size is the length).
    policy:
        Task-scheduling policy name, resolved by
        :func:`repro.cluster.policies.make_policy` in the event-driven
        backend.  The discrete back-ends support only :data:`STATIC_POLICY`.
    policy_kwargs:
        Policy parameters (e.g. ``chunks_per_station`` for self-scheduling),
        canonicalised like :attr:`StationSpec.demand_kwargs`.
    imbalance:
        Relative task-demand imbalance of the placement (0 = the paper's
        perfectly balanced split), used by the event-driven backend.
    arrivals:
        Optional :class:`JobArrivalSpec` turning the scenario into an *open*
        system (a stream of competing jobs).  ``None`` — the default, and the
        paper's model — is the closed system: one job at a time, back to back.
    """

    stations: tuple[StationSpec, ...]
    policy: str = STATIC_POLICY
    policy_kwargs: tuple[tuple[str, float], ...] = ()
    imbalance: float = 0.0
    arrivals: JobArrivalSpec | None = None

    def __post_init__(self) -> None:
        if not self.stations:
            raise ValueError("a scenario needs at least one workstation")
        object.__setattr__(self, "stations", tuple(self.stations))
        for station in self.stations:
            if not isinstance(station, StationSpec):
                raise TypeError(
                    f"stations must be StationSpec instances, got {station!r}"
                )
        if not self.policy:
            raise ValueError("policy must be a non-empty name")
        object.__setattr__(self, "policy_kwargs", _freeze_kwargs(self.policy_kwargs))
        if not 0.0 <= self.imbalance < 1.0:
            raise ValueError(f"imbalance must be in [0, 1), got {self.imbalance!r}")
        if self.arrivals is not None and not isinstance(self.arrivals, JobArrivalSpec):
            raise TypeError(
                f"arrivals must be a JobArrivalSpec or None, got {self.arrivals!r}"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def homogeneous(
        cls,
        workstations: int,
        owner: OwnerSpec,
        *,
        demand_kind: str = "deterministic",
        demand_kwargs: Mapping[str, float] | Iterable[tuple[str, float]] | None = None,
        policy: str = STATIC_POLICY,
        policy_kwargs: Mapping[str, float] | Iterable[tuple[str, float]] | None = None,
        imbalance: float = 0.0,
        arrivals: JobArrivalSpec | None = None,
    ) -> "ScenarioSpec":
        """The paper's homogeneous cluster expressed as a scenario."""
        if workstations < 1:
            raise ValueError(f"workstations must be >= 1, got {workstations!r}")
        station = StationSpec(
            owner=owner, demand_kind=demand_kind, demand_kwargs=_freeze_kwargs(demand_kwargs)
        )
        return cls(
            stations=tuple([station] * workstations),
            policy=policy,
            policy_kwargs=_freeze_kwargs(policy_kwargs),
            imbalance=imbalance,
            arrivals=arrivals,
        )

    @classmethod
    def from_owners(
        cls,
        owners: Sequence[OwnerSpec],
        *,
        demand_kind: str = "deterministic",
        policy: str = STATIC_POLICY,
        policy_kwargs: Mapping[str, float] | Iterable[tuple[str, float]] | None = None,
        imbalance: float = 0.0,
        arrivals: JobArrivalSpec | None = None,
    ) -> "ScenarioSpec":
        """One station per owner spec, all sharing one demand-distribution kind."""
        return cls(
            stations=tuple(
                StationSpec(owner=owner, demand_kind=demand_kind) for owner in owners
            ),
            policy=policy,
            policy_kwargs=_freeze_kwargs(policy_kwargs),
            imbalance=imbalance,
            arrivals=arrivals,
        )

    @classmethod
    def from_utilizations(
        cls,
        utilizations: Sequence[float],
        owner_demand: float = 10.0,
        **kwargs: Any,
    ) -> "ScenarioSpec":
        """Build a scenario from a per-workstation owner-utilization vector."""
        owners = [
            OwnerSpec(demand=owner_demand, utilization=float(u)) for u in utilizations
        ]
        return cls.from_owners(owners, **kwargs)

    @classmethod
    def from_traces(
        cls,
        traces: Sequence["OwnerActivityTrace"],
        *,
        policy: str = STATIC_POLICY,
        policy_kwargs: Mapping[str, float] | Iterable[tuple[str, float]] | None = None,
        imbalance: float = 0.0,
        arrivals: JobArrivalSpec | None = None,
    ) -> "ScenarioSpec":
        """One trace-replaying station per recorded owner-activity trace.

        This is the measured-cluster entry point: feed it the traces of an
        :func:`~repro.workload.uptime_survey`-style measurement and the
        event-driven back-ends simulate the recorded owners rather than
        fitted distributions.
        """
        return cls(
            stations=tuple(StationSpec.from_trace(trace) for trace in traces),
            policy=policy,
            policy_kwargs=_freeze_kwargs(policy_kwargs),
            imbalance=imbalance,
            arrivals=arrivals,
        )

    # -- derived views -----------------------------------------------------

    @property
    def workstations(self) -> int:
        """System size ``W``."""
        return len(self.stations)

    @property
    def owners(self) -> tuple[OwnerSpec, ...]:
        """The per-workstation owner specs (for the analytical extension)."""
        return tuple(station.owner for station in self.stations)

    @property
    def is_homogeneous(self) -> bool:
        """Whether every station is identical (the paper's assumption)."""
        return all(station == self.stations[0] for station in self.stations[1:])

    @property
    def mean_utilization(self) -> float:
        """Cluster-average owner utilization.

        For a homogeneous scenario this returns the station's utilization
        *exactly* (no float summation round-off), so the homogeneous reduction
        stays bitwise-identical to the legacy path.
        """
        utilizations = [station.utilization for station in self.stations]
        first = utilizations[0]
        if all(u == first for u in utilizations[1:]):
            return first
        return float(sum(utilizations) / len(utilizations))

    @property
    def max_utilization(self) -> float:
        return max(station.utilization for station in self.stations)

    @property
    def is_open(self) -> bool:
        """Whether this scenario describes an open system (a job stream)."""
        return self.arrivals is not None

    def with_policy(
        self,
        policy: str,
        policy_kwargs: Mapping[str, float] | Iterable[tuple[str, float]] | None = None,
    ) -> "ScenarioSpec":
        """Copy of this scenario under a different scheduling policy."""
        return replace(
            self, policy=policy, policy_kwargs=_freeze_kwargs(policy_kwargs)
        )

    def with_arrivals(self, arrivals: JobArrivalSpec | None) -> "ScenarioSpec":
        """Copy of this scenario with a different job-arrival process."""
        return replace(self, arrivals=arrivals)


@dataclass(frozen=True)
class JobSpec:
    """A perfectly parallel job of total demand ``J`` split into equal tasks.

    Attributes
    ----------
    total_demand:
        Total demand ``J`` of the parallel job in time units.
    rounding:
        Policy used to map the fractional per-task demand onto the integer
        discrete-time model (see :class:`TaskRounding`).
    """

    total_demand: float
    rounding: TaskRounding = TaskRounding.ROUND

    def __post_init__(self) -> None:
        if self.total_demand <= 0:
            raise ValueError(
                f"total_demand must be positive, got {self.total_demand!r}"
            )
        object.__setattr__(self, "rounding", TaskRounding(self.rounding))

    def task_demand(self, workstations: int) -> float:
        """Per-task demand ``T = J / W`` under this job's rounding policy."""
        return split_job_demand(self.total_demand, workstations, self.rounding)

    def task_ratio(self, workstations: int, owner: OwnerSpec) -> float:
        """Task ratio ``T / O`` for a given system size and owner behaviour."""
        return self.task_demand(workstations) / owner.demand

    def scaled(self, factor: float) -> "JobSpec":
        """Return a copy whose total demand is multiplied by ``factor``."""
        return replace(self, total_demand=self.total_demand * factor)


@dataclass(frozen=True)
class SystemSpec:
    """A homogeneous cluster of ``workstations`` identically loaded nodes."""

    workstations: int
    owner: OwnerSpec = field(default_factory=lambda: OwnerSpec.from_utilization(0.1))

    def __post_init__(self) -> None:
        if self.workstations < 1:
            raise ValueError(
                f"workstations must be >= 1, got {self.workstations!r}"
            )

    def with_size(self, workstations: int) -> "SystemSpec":
        """Return a copy of this system with a different node count."""
        return replace(self, workstations=workstations)

    def with_owner(self, owner: OwnerSpec) -> "SystemSpec":
        """Return a copy of this system with a different owner behaviour."""
        return replace(self, owner=owner)


@dataclass(frozen=True)
class ModelInputs:
    """Fully resolved inputs to the analytical model for a single evaluation.

    This is the flattened (``T``, ``W``, ``O``, ``P``) tuple the equations of
    Section 2 operate on, produced from a (:class:`JobSpec`,
    :class:`SystemSpec`) pair by :meth:`ModelInputs.from_specs`.
    """

    task_demand: float
    workstations: int
    owner_demand: float
    request_probability: float

    def __post_init__(self) -> None:
        if self.task_demand <= 0:
            raise ValueError(f"task_demand must be positive, got {self.task_demand!r}")
        if self.workstations < 1:
            raise ValueError(f"workstations must be >= 1, got {self.workstations!r}")
        if self.owner_demand <= 0:
            raise ValueError(f"owner_demand must be positive, got {self.owner_demand!r}")
        if not 0.0 <= self.request_probability <= 1.0:
            raise ValueError(
                "request_probability must be in [0, 1], "
                f"got {self.request_probability!r}"
            )

    @classmethod
    def from_specs(cls, job: JobSpec, system: SystemSpec) -> "ModelInputs":
        """Resolve a job/system pair into raw model inputs.

        Note: for :attr:`TaskRounding.INTERPOLATE` the task demand kept here is
        the *fractional* ``J / W``; the analytical routines blend the two
        adjacent integer evaluations.
        """
        t = job.task_demand(system.workstations)
        owner = system.owner
        assert owner.request_probability is not None
        return cls(
            task_demand=t,
            workstations=system.workstations,
            owner_demand=owner.demand,
            request_probability=owner.request_probability,
        )

    @property
    def utilization(self) -> float:
        """Owner utilization ``U`` implied by ``O`` and ``P`` (Eq. 8)."""
        return request_probability_to_utilization(
            self.request_probability, self.owner_demand
        )

    @property
    def task_ratio(self) -> float:
        """Task ratio ``T / O``."""
        return self.task_demand / self.owner_demand

    @property
    def job_demand(self) -> float:
        """Total job demand ``J = T * W`` implied by these inputs."""
        return self.task_demand * self.workstations


def validate_utilizations(utilizations: Iterable[float]) -> Sequence[float]:
    """Validate a collection of owner utilizations (each in ``[0, 1)``).

    Returns the values as a tuple so callers can iterate repeatedly.
    """
    values = tuple(float(u) for u in utilizations)
    for u in values:
        if not 0.0 <= u < 1.0:
            raise ValueError(f"utilization must be in [0, 1), got {u!r}")
    return values
