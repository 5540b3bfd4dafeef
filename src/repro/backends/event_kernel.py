"""`event-kernel` backend: the flattened array kernel behind the registry.

Adapter between :class:`repro.kernel.machine.EventKernel` and the backend
protocol.  The kernel stands in, bit for bit, for one generator oracle per
kind of scenario, :data:`KERNEL_ORACLES`: ``event-driven`` for a closed
scenario and ``open-system`` for an open (job-stream) one.  It accepts
exactly the configs that oracle accepts (its :meth:`~EventKernelBackend.check`
is the oracle's) and yields the oracle's result class
(:func:`~repro.backends.open_system.result_class`), labelled
``mode="event-kernel"`` for provenance.  The sweep runner executes every
point requested under either oracle mode here, and the cache fingerprints
the kernel's points as the oracle's, so the two share entries.

``run_batch`` is the cross-point batching entry: back-to-back grid points
share one :class:`EventKernel` instance (one reusable event heap), while
every point still seeds its own :class:`~repro.desim.StreamRegistry` from
its config, so batch composition cannot change any result.
"""

from __future__ import annotations

from typing import Sequence

from ..kernel.machine import EventKernel
from ..obs import get_sim_tap
from .base import SimulationBackend, SimulationConfig, get_backend, register_backend
from .open_system import result_class

__all__ = ["KERNEL_ORACLES", "EventKernelBackend"]

#: The generator oracle the kernel stands in for, keyed by whether the
#: scenario is open.
KERNEL_ORACLES = {False: "event-driven", True: "open-system"}


@register_backend
class EventKernelBackend(SimulationBackend):
    """Array-based replacement for the event-driven / open-system hot path."""

    name = "event-kernel"

    @classmethod
    def check(cls, config: SimulationConfig) -> None:
        # the check of the oracle the kernel stands in for
        get_backend(KERNEL_ORACLES[config.effective_scenario.is_open]).check(config)

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
        return result_class(cfg)(cfg, self.name, *kernel.run(cfg, self._streams))

    @classmethod
    def run_batch(cls, configs: Sequence[SimulationConfig]) -> list:
        """Run many configs on one shared kernel (cross-point batching).

        Every config carries its own seed, so the results are independent
        of batch composition.
        """
        kernel = EventKernel()
        return [cls(config)._run_with(kernel) for config in configs]
