"""Simulation-level event taps: watch scheduling decisions event by event.

The bitwise-pinned hot loops — the event-driven backends' generators and the
array :class:`~repro.kernel.machine.EventKernel` — expose a *generic* hook
(a ``tap`` attribute, ``None`` by default) that they call with
``(kind, sim_time, **details)`` at each scheduling decision:

==================  ====================================================
``owner-arrival``   an owner woke with real demand and claims the CPU
``task-preempted``  a parallel task lost the CPU to its owner
``task-migrated``   the migration policy moved a remainder to a new station
``job-queued``      an open-system arrival waited on the admission cap
``job-admitted``    an open-system arrival acquired an admission slot
                    (space-shared: its exclusive station subset)
``job-restarted``   preemptive admission evicted a running job; it
                    requeued with its full demand
==================  ====================================================

The hot loops never import this module (a tier-1 test checks it); the
*backends* wire an installed :class:`SimEventTap` into them per run.  Taps
are pure observers: they draw no randomness and change no event ordering, so
a tapped run is bitwise-identical to an untapped one (pinned in tests).

Opt in per process::

    tap = install_sim_tap(SimEventTap(tracer=get_tracer()))
    run_simulation(config, mode="event-driven")
    uninstall_sim_tap()
    tap.events   # [(kind, sim_time, details), ...]

Taps record only in the process that runs the simulation — under a sweep
worker pool that is the worker, so tap-based debugging is an in-process,
single-point tool (``jobs=1``), which is exactly how you debug a policy.
"""

from __future__ import annotations

import threading
from typing import Any

from .tracing import Tracer

__all__ = [
    "SIM_EVENT_KINDS",
    "SimEventTap",
    "install_sim_tap",
    "uninstall_sim_tap",
    "get_sim_tap",
]

#: Every event kind the instrumented hot loops emit.
SIM_EVENT_KINDS: tuple[str, ...] = (
    "owner-arrival",
    "task-preempted",
    "task-migrated",
    "job-queued",
    "job-admitted",
    "job-restarted",
)


class SimEventTap:
    """Collects simulation decision events, optionally mirroring to a tracer.

    ``record`` is the callable the backends hand to the hot loops.  Events
    accumulate on :attr:`events` as ``(kind, sim_time, details)`` tuples; with
    a tracer attached each event is also emitted as an ``instant`` trace
    event whose args carry the simulated clock — so a sweep trace interleaves
    wall-clock spans with simulation-time decisions.

    ``kinds`` filters what is kept (default: everything), so a long run can
    tap only migrations without paying list growth for every preemption.
    """

    def __init__(
        self,
        tracer: Tracer | None = None,
        kinds: tuple[str, ...] | None = None,
    ) -> None:
        if kinds is not None:
            unknown = set(kinds) - set(SIM_EVENT_KINDS)
            if unknown:
                raise ValueError(
                    f"unknown sim event kinds {sorted(unknown)!r}; "
                    f"expected a subset of {SIM_EVENT_KINDS!r}"
                )
        self.tracer = tracer
        self.kinds = kinds
        self.events: list[tuple[str, float, dict[str, Any]]] = []
        self._lock = threading.Lock()

    def record(self, kind: str, sim_time: float, **details: Any) -> None:
        """The hook the hot loops call; cheap, allocation-light, observer-only."""
        if self.kinds is not None and kind not in self.kinds:
            return
        with self._lock:
            self.events.append((kind, float(sim_time), details))
        if self.tracer is not None:
            self.tracer.instant(kind, cat="sim", sim_time=float(sim_time), **details)

    def counts(self) -> dict[str, int]:
        """Events seen so far, by kind."""
        with self._lock:
            totals: dict[str, int] = {}
            for kind, _, _ in self.events:
                totals[kind] = totals.get(kind, 0) + 1
            return totals

    def clear(self) -> None:
        with self._lock:
            self.events.clear()


#: The process-global tap the backends wire into the hot loops (opt-in).
_ACTIVE_TAP: SimEventTap | None = None


def install_sim_tap(tap: SimEventTap) -> SimEventTap:
    """Install a tap for subsequent simulation runs in this process."""
    global _ACTIVE_TAP
    _ACTIVE_TAP = tap
    return tap


def uninstall_sim_tap() -> None:
    global _ACTIVE_TAP
    _ACTIVE_TAP = None


def get_sim_tap() -> SimEventTap | None:
    """The installed tap, or ``None`` (the default: hot loops stay bare)."""
    return _ACTIVE_TAP
