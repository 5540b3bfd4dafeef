"""Synthetic workstation-owner activity traces.

The paper's experimental section measures the owner load of its 12 Sun ELC
workstations with ``uptime`` over two working days and finds roughly 3%
utilization from "trivial usage such as editing files, reading mail, news,
etc.".  We cannot rerun that survey, so this module generates the synthetic
equivalent: a stochastic mix of short interactive activities whose long-run
utilization is calibrated to a target (3% for the Figure 10/11 experiments),
plus the measurement utilities (:func:`measure_utilization`,
:func:`uptime_survey`) used to verify the calibration the same way the paper
did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..cluster.owner import OwnerBehavior
from ..core.params import OwnerSpec
from ..desim import StreamRegistry, make_variate

__all__ = [
    "ActivityType",
    "TRIVIAL_USAGE_MIX",
    "OwnerActivityTrace",
    "generate_trace",
    "measure_utilization",
    "uptime_survey",
    "MixedOwnerDemand",
    "trivial_usage_behavior",
]


@dataclass(frozen=True)
class ActivityType:
    """One kind of interactive owner activity (editing, mail, news, ...)."""

    name: str
    mean_demand: float
    weight: float
    kind: str = "exponential"

    def __post_init__(self) -> None:
        if self.mean_demand <= 0:
            raise ValueError(f"mean_demand must be positive, got {self.mean_demand!r}")
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight!r}")


#: A plausible mix of the "trivial usage" the paper describes, expressed in
#: model time units (the absolute values only matter relative to the owner
#: think time; the calibration fixes the resulting utilization).
TRIVIAL_USAGE_MIX: tuple[ActivityType, ...] = (
    ActivityType(name="editing", mean_demand=8.0, weight=0.5),
    ActivityType(name="mail", mean_demand=12.0, weight=0.3),
    ActivityType(name="news", mean_demand=15.0, weight=0.15),
    ActivityType(name="compile", mean_demand=30.0, weight=0.05),
)


@dataclass(frozen=True)
class MixedOwnerDemand:
    """Owner-demand variate drawn from a weighted mix of activity types."""

    activities: tuple[ActivityType, ...] = TRIVIAL_USAGE_MIX

    def __post_init__(self) -> None:
        if not self.activities:
            raise ValueError("activity mix must not be empty")

    @property
    def _weights(self) -> np.ndarray:
        w = np.array([a.weight for a in self.activities], dtype=np.float64)
        return w / w.sum()

    @property
    def mean(self) -> float:
        return float(
            np.dot(self._weights, [a.mean_demand for a in self.activities])
        )

    def sample(self, rng: np.random.Generator) -> float:
        weights = self._weights
        index = int(rng.choice(len(self.activities), p=weights))
        activity = self.activities[index]
        variate = make_variate(activity.kind, activity.mean_demand)
        return variate.sample(rng)


def trivial_usage_behavior(
    target_utilization: float,
    activities: Sequence[ActivityType] = TRIVIAL_USAGE_MIX,
) -> OwnerBehavior:
    """Owner behaviour whose demand is the trivial-usage mix, calibrated to a target.

    The think time is geometric with the probability that makes the *nominal*
    utilization equal to ``target_utilization`` given the mix's mean demand
    (the same relationship as Eq. 8 of the paper).
    """
    demand = MixedOwnerDemand(tuple(activities))
    spec = OwnerSpec(demand=demand.mean, utilization=target_utilization)
    base = OwnerBehavior.from_spec(spec)
    return OwnerBehavior(think_time=base.think_time, demand=demand)


@dataclass(frozen=True)
class OwnerActivityTrace:
    """A realised owner-activity trace: busy intervals over a horizon.

    A zero-length horizon is a valid (empty) trace — it arises naturally when
    a measurement window degenerates, e.g. while slicing traces for
    interarrival sampling — and intervals must lie inside ``[0, horizon]``:
    an interval reaching past the horizon would silently inflate the measured
    utilization beyond what the window can support.
    """

    horizon: float
    busy_intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if self.horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon!r}")
        last_end = 0.0
        for start, end in self.busy_intervals:
            if start < last_end or end < start:
                raise ValueError(
                    "busy intervals must be non-overlapping and ordered; "
                    f"offending interval ({start}, {end})"
                )
            if end > self.horizon:
                raise ValueError(
                    f"busy interval ({start}, {end}) reaches past the "
                    f"horizon {self.horizon}"
                )
            last_end = end

    @property
    def busy_time(self) -> float:
        return sum(end - start for start, end in self.busy_intervals)

    @property
    def utilization(self) -> float:
        """Fraction of the horizon during which the owner kept the CPU busy.

        A zero-length horizon carries no activity, so its utilization is 0
        (rather than a division error).
        """
        if self.horizon == 0.0:
            return 0.0
        return min(1.0, self.busy_time / self.horizon)

    @property
    def num_bursts(self) -> int:
        return len(self.busy_intervals)

    def busy_at(self, time: float) -> bool:
        """Whether the owner is busy at the given instant.

        Intervals are half-open (``start <= t < end``), so an interval that
        touches the horizon boundary reports busy right up to — but not at —
        the horizon itself, and instants outside ``[0, horizon)`` are never
        busy.
        """
        if not 0.0 <= time < self.horizon:
            return False
        for start, end in self.busy_intervals:
            if start <= time < end:
                return True
            if start > time:
                break
        return False

    def burst_start_times(self) -> tuple[float, ...]:
        """Start instants of the busy bursts (the trace's arrival epochs)."""
        return tuple(start for start, _ in self.busy_intervals)

    def to_interarrivals(self) -> tuple[float, ...]:
        """Gaps between consecutive burst starts (first gap is from time 0).

        This is the bridge to trace-driven job streams: feeding the gaps to
        :meth:`repro.core.JobArrivalSpec.from_trace` replays the measured
        owner-activity epochs as job arrivals.  Empty for a trace with no
        bursts.
        """
        starts = self.burst_start_times()
        if not starts:
            return ()
        gaps = [starts[0]]
        gaps.extend(b - a for a, b in zip(starts, starts[1:]))
        return tuple(gaps)


def generate_trace(
    behavior: OwnerBehavior,
    horizon: float,
    rng: np.random.Generator,
) -> OwnerActivityTrace:
    """Generate one owner-activity trace of length ``horizon``.

    The owner alternates a sampled think period and a sampled busy period,
    starting with a think period; busy intervals are truncated at the horizon.
    A zero-length horizon yields the empty trace.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon!r}")
    if horizon == 0:
        return OwnerActivityTrace(horizon=0.0, busy_intervals=())
    intervals: list[tuple[float, float]] = []
    time = 0.0
    if behavior.is_idle:
        return OwnerActivityTrace(horizon=horizon, busy_intervals=())
    while time < horizon:
        think = behavior.think_time.sample(rng)
        time += max(0.0, think)
        if time >= horizon:
            break
        demand = max(0.0, behavior.demand.sample(rng))
        end = min(horizon, time + demand)
        if end > time:
            intervals.append((time, end))
        time = end
    return OwnerActivityTrace(horizon=horizon, busy_intervals=tuple(intervals))


def measure_utilization(trace: OwnerActivityTrace) -> float:
    """Time-averaged utilization of a trace (what ``uptime`` approximates)."""
    return trace.utilization


def uptime_survey(
    behavior: OwnerBehavior,
    horizon: float,
    num_workstations: int,
    seed: int = 0,
) -> dict[str, float]:
    """Simulated analogue of the paper's two-working-day ``uptime`` survey.

    Generates one independent trace per workstation and reports the mean,
    minimum and maximum measured utilizations — the mean is the number the
    paper plugs into its analytical model (3% in Figure 10).
    """
    if num_workstations < 1:
        raise ValueError(f"num_workstations must be >= 1, got {num_workstations!r}")
    registry = StreamRegistry(seed)
    utilizations = []
    for index in range(num_workstations):
        rng = registry.stream(f"survey-{index}")
        trace = generate_trace(behavior, horizon, rng)
        utilizations.append(trace.utilization)
    values = np.asarray(utilizations)
    return {
        "mean": float(values.mean()),
        "min": float(values.min()),
        "max": float(values.max()),
        "std": float(values.std(ddof=1)) if values.size >= 2 else 0.0,
        "workstations": float(num_workstations),
        "horizon": float(horizon),
    }
