"""Workstation-owner behaviour models.

The paper's owner alternates geometric think time (mean ``1/P``) with a
deterministic service demand ``O``, and owner processes preempt parallel
tasks.  :class:`OwnerBehavior` captures that cycle and generalises both phases
to arbitrary variates so the simulator can also explore the paper's
"future work" question: what happens when owner demands are highly variable
(exponential, hyper-exponential) instead of deterministic?
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Generator

import numpy as np

from ..core.params import OwnerSpec, StationSpec
from ..desim import (
    DeterministicVariate,
    Environment,
    GeometricVariate,
    SequenceVariate,
    Variate,
    make_variate,
)

__all__ = ["OWNER_PRIORITY", "TASK_PRIORITY", "OwnerBehavior", "owner_process"]

#: CPU priority of owner processes (lower number = more important).
OWNER_PRIORITY = 0
#: CPU priority of parallel tasks: preemptible by the owner.
TASK_PRIORITY = 10


@dataclass(frozen=True)
class OwnerBehavior:
    """Stochastic description of one workstation owner.

    Attributes
    ----------
    think_time:
        Variate for the idle (thinking) period between owner processes.  The
        paper uses a geometric distribution with mean ``1/P``.
    demand:
        Variate for the owner-process service demand.  The paper's baseline is
        deterministic ``O``; the variance ablation swaps in exponential or
        hyper-exponential variates with the same mean.
    """

    think_time: Variate
    demand: Variate

    @property
    def mean_think_time(self) -> float:
        return self.think_time.mean

    @property
    def mean_demand(self) -> float:
        return self.demand.mean

    @property
    def utilization(self) -> float:
        """Long-run owner utilization ``O / (O + think)`` implied by the means."""
        total = self.mean_demand + self.mean_think_time
        if total == float("inf"):
            return 0.0
        return self.mean_demand / total

    @property
    def is_idle(self) -> bool:
        """True if the owner never uses the workstation."""
        return self.mean_think_time == float("inf") or self.utilization == 0.0

    @classmethod
    def from_spec(
        cls,
        spec: OwnerSpec,
        demand_kind: str = "deterministic",
        **demand_kwargs,
    ) -> "OwnerBehavior":
        """Build a behaviour from the analytical model's :class:`OwnerSpec`.

        The think time is the paper's geometric with parameter ``P``; the
        demand distribution defaults to deterministic ``O`` but can be any
        kind accepted by :func:`repro.desim.make_variate`, preserving the mean
        so the nominal utilization is unchanged.
        """
        assert spec.request_probability is not None
        if spec.request_probability <= 0.0:
            think: Variate = DeterministicVariate(float("inf"))
        else:
            think = GeometricVariate(spec.request_probability)
        demand = make_variate(demand_kind, spec.demand, **demand_kwargs)
        return cls(think_time=think, demand=demand)

    @classmethod
    def from_station(cls, spec: StationSpec) -> "OwnerBehavior":
        """Owner behaviour of one station: its fitted distributions, or the
        replay of its recorded trace (``demand_kind="trace"``)."""
        if spec.demand_kind == "trace":
            assert spec.trace is not None  # StationSpec validation guarantees it
            return cls.from_trace(spec.trace)
        return cls.from_spec(spec.owner, spec.demand_kind, **dict(spec.demand_kwargs))

    @classmethod
    def from_trace(cls, trace) -> "OwnerBehavior":
        """Replay a recorded :class:`~repro.workload.OwnerActivityTrace`.

        The owner's think/use cycle is rebuilt from the trace's busy
        intervals as deterministic :class:`~repro.desim.SequenceVariate`
        sequences: the first think period runs from the trace origin to the
        first burst, subsequent think periods are the recorded inter-burst
        gaps, and once the horizon is exhausted the trace wraps around (the
        gap from the last burst's end through the horizon to the first
        burst's start) so arbitrarily long simulations keep replaying the
        measured activity.  The implied long-run utilization equals the
        trace's measured utilization exactly.  A trace with no bursts yields
        an idle owner.
        """
        intervals = tuple(trace.busy_intervals)
        if not intervals:
            return cls(
                think_time=DeterministicVariate(float("inf")),
                demand=DeterministicVariate(0.0),
            )
        starts = tuple(start for start, _ in intervals)
        ends = tuple(end for _, end in intervals)
        demands = tuple(end - start for start, end in intervals)
        gaps = tuple(
            starts[index] - ends[index - 1] for index in range(1, len(intervals))
        )
        wrap_gap = (float(trace.horizon) - ends[-1]) + starts[0]
        return cls(
            think_time=SequenceVariate(values=gaps + (wrap_gap,), prefix=(starts[0],)),
            demand=SequenceVariate(values=demands),
        )

    def with_demand_kind(self, kind: str, **kwargs) -> "OwnerBehavior":
        """Copy of this behaviour with a different demand distribution, same mean."""
        return replace(self, demand=make_variate(kind, self.mean_demand, **kwargs))

    def to_spec(self) -> OwnerSpec:
        """Collapse back to the analytical model's parameters (means only)."""
        if self.is_idle:
            return OwnerSpec(demand=self.mean_demand, utilization=0.0)
        return OwnerSpec(
            demand=self.mean_demand,
            request_probability=min(1.0, 1.0 / self.mean_think_time),
        )


def owner_process(
    env: Environment,
    cpu,
    behavior: OwnerBehavior,
    rng: np.random.Generator,
    busy_monitor=None,
    tap: Callable[..., None] | None = None,
    station: int = 0,
) -> Generator:
    """Simulation process for one workstation owner (event-driven mode).

    The owner thinks, then seizes the CPU at :data:`OWNER_PRIORITY`
    (preempting any parallel task), holds it for one sampled demand, releases
    it and goes back to thinking — forever.  ``busy_monitor`` (a
    :class:`~repro.desim.TimeWeightedMonitor`) records the owner's busy signal
    so the simulation can report the *measured* utilization alongside the
    nominal one.

    ``tap`` is the generic observer hook (see
    :class:`~repro.cluster.workstation.Workstation`): called as
    ``tap("owner-arrival", now, station=..., demand=...)`` whenever the owner
    wakes with real demand.  Observer-only — it draws no randomness and
    changes no event ordering.
    """
    if behavior.is_idle:
        return
    while True:
        think = behavior.think_time.sample(rng)
        if think == float("inf"):
            return
        yield env.timeout(max(0.0, think))
        demand = max(0.0, behavior.demand.sample(rng))
        if demand == 0.0:
            continue
        if tap is not None:
            tap("owner-arrival", env.now, station=station, demand=demand)
        with cpu.request(priority=OWNER_PRIORITY) as req:
            yield req
            if busy_monitor is not None:
                busy_monitor.update(env.now, 1.0)
            try:
                yield env.timeout(demand)
            finally:
                # Owners hold the highest priority and are never preempted;
                # an Interrupt here is a kill and must propagate (swallowing
                # it would resume the owner as if nothing happened and
                # corrupt the busy signal).  The monitor still closes.
                if busy_monitor is not None:
                    busy_monitor.update(env.now, 0.0)
