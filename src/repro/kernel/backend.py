"""`event-kernel` backend: the flattened array kernel behind the registry.

Adapter between :class:`repro.kernel.machine.EventKernel` and the backend
protocol of :mod:`repro.backends.base`.  One registry entry covers both
result flavours: closed scenarios produce the ``event-driven`` backend's
:class:`SimulationResult`, open (job-stream) scenarios produce the
``open-system`` backend's :class:`OpenSystemResult` — in both cases
bitwise-identical to what the generator-based oracle computes for the same
config, just labelled ``mode="event-kernel"`` for provenance.  The sweep
runner executes every point requested under either oracle mode here.  The
results share the oracles' cache entries too: both layouts are the result
dataclasses' fields, and the fingerprint maps ``event-kernel`` to the
oracle mode it replaces.

``run_batch`` is the cross-point batching entry: back-to-back grid points
share one :class:`EventKernel` instance (one reusable event heap), while
every point still seeds its own :class:`~repro.desim.StreamRegistry` from
its config, so batch composition cannot change any result.

Every registered scheduling policy has transition tables (the kernel
refuses a policy without one with a ``ValueError``).  Closed scenarios run
through :meth:`EventKernel.run_closed`, classless job streams through
:meth:`EventKernel.run_open`, and space-shared admission scenarios (job
classes under FCFS / EASY-backfill / priority admission) through
:meth:`EventKernel.run_space_shared` — three entry points into the kernel's
one event loop.
"""

from __future__ import annotations

from typing import Sequence

from ..backends.base import (
    SimulationBackend,
    SimulationConfig,
    SimulationResult,
    get_backend,
    register_backend,
)
from ..backends.open_system import OpenSystemResult
from ..obs import get_sim_tap
from .machine import EventKernel

__all__ = ["EventKernelBackend"]


@register_backend
class EventKernelBackend(SimulationBackend):
    """Array-based replacement for the event-driven / open-system hot path."""

    name = "event-kernel"

    @classmethod
    def check(cls, config: SimulationConfig) -> None:
        # the kernel runs every closed scenario, and the open ones that
        # its open-system oracle runs
        if config.effective_scenario.is_open:
            get_backend("open-system").check(config)

    def run(self):
        """Run one config on a fresh kernel instance."""
        return self._run_with(EventKernel())

    def _run_with(self, kernel: EventKernel):
        # Wire the process's installed sim-event tap (if any) into the
        # kernel's bare hook — the kernel itself never imports repro.obs.
        tap = get_sim_tap()
        if tap is not None:
            kernel.tap = tap.record
        cfg = self.config
        scenario = cfg.effective_scenario
        # run_closed and run_space_shared return the result's sample fields
        # in declaration order; a classless stream has no widths or classes
        if scenario.is_open:
            spec = scenario.arrivals
            if spec is not None and spec.is_space_shared:
                return OpenSystemResult(
                    cfg, self.name, *kernel.run_space_shared(cfg, self._streams)
                )
            arrivals, starts, ends, demands, measured = kernel.run_open(
                cfg, self._streams
            )
            return OpenSystemResult(
                config=cfg,
                mode=self.name,
                arrival_times=arrivals,
                start_times=starts,
                end_times=ends,
                demands=demands,
                measured_owner_utilization=measured,
            )
        return SimulationResult(cfg, self.name, *kernel.run_closed(cfg, self._streams))

    @classmethod
    def run_batch(
        cls,
        configs: Sequence[SimulationConfig],
        seed: int | None = None,
    ) -> list:
        """Run many configs on one shared kernel (cross-point batching).

        ``seed`` is accepted for protocol compatibility and ignored: every
        config carries its own seed (derived from its grid coordinates by the
        sweep builders), so results are independent of batch composition.
        """
        kernel = EventKernel()
        return [cls(config)._run_with(kernel) for config in configs]
