"""`event-kernel` backend: the flattened array kernel behind the registry.

Adapter between :class:`repro.kernel.machine.EventKernel` and the backend
protocol of :mod:`repro.backends.base`.  One registry entry covers both
result flavours: closed scenarios produce the ``event-driven`` backend's
:class:`SimulationResult`, open (job-stream) scenarios produce the
``open-system`` backend's :class:`OpenSystemResult` — in both cases
bitwise-identical to what the generator-based oracle computes for the same
config, just labelled ``mode="event-kernel"`` for provenance.  The sweep
runner executes every point requested under either oracle mode here.

``run_batch`` is the cross-point batching entry: back-to-back grid points
share one :class:`EventKernel` instance (one reusable agenda heap), while
every point still seeds its own :class:`~repro.desim.StreamRegistry` from
its config, so batch composition cannot change any result.

Every registered scheduling policy has transition tables (the kernel
refuses a policy without one with a ``ValueError``), and space-shared
admission scenarios (job classes under FCFS / EASY-backfill / priority
admission) run through :meth:`EventKernel.run_space_shared`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Sequence

import numpy as np

from ..backends.base import (
    SimulationBackend,
    SimulationConfig,
    SimulationResult,
    get_backend,
    register_backend,
)
from ..backends.open_system import OpenSystemResult
from ..obs import get_sim_tap
from ..stats import batch_means_interval
from .machine import EventKernel

__all__ = ["EventKernelBackend"]


@register_backend
class EventKernelBackend(SimulationBackend):
    """Array-based replacement for the event-driven / open-system hot path."""

    name = "event-kernel"

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
        if scenario.is_open:
            spec = scenario.arrivals
            if spec is not None and spec.is_space_shared:
                (
                    arrivals,
                    starts,
                    ends,
                    demands,
                    widths,
                    class_ids,
                    restarts,
                    measured,
                ) = kernel.run_space_shared(cfg, self._streams)
                return OpenSystemResult(
                    config=cfg,
                    mode=self.name,
                    arrival_times=arrivals,
                    start_times=starts,
                    end_times=ends,
                    demands=demands,
                    measured_owner_utilization=measured,
                    widths=widths,
                    class_ids=class_ids,
                    restarts=restarts,
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
        job_times, task_times, measured = kernel.run_closed(cfg, self._streams)
        return SimulationResult(
            config=cfg,
            mode=self.name,
            job_times=job_times,
            task_times=task_times,
            job_time_interval=batch_means_interval(
                job_times, cfg.num_batches, cfg.confidence
            ),
            measured_owner_utilization=measured,
        )

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

    # -- NPZ cache hooks: delegate to the oracle backends' layouts ----------
    #
    # The kernel's results are bitwise-identical to the oracles', so sharing
    # their on-disk layouts (and, with cache schema >= 6, their fingerprint
    # digests) lets a sweep cached under either executor replay on the other.

    @classmethod
    def serialize_result(cls, result) -> dict[str, np.ndarray]:
        if isinstance(result, OpenSystemResult):
            return get_backend("open-system").serialize_result(result)
        return super().serialize_result(result)

    @classmethod
    def deserialize_result(cls, config: SimulationConfig, arrays: Mapping[str, np.ndarray]):
        if config.effective_scenario.is_open:
            result = get_backend("open-system").deserialize_result(config, arrays)
            return replace(result, mode=cls.name)
        return super().deserialize_result(config, arrays)
