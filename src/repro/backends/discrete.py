"""Faithful discrete-time backend: the paper's model, walked unit by unit.

This is the closest analogue of the authors' CSIM validation model and is
used in the tests to cross-check the other back-ends (it is exact but slow).
"""

from __future__ import annotations

import numpy as np

from .base import SimulationResult, _ClosedFormBackend, register_backend

__all__ = ["simulate_task_discrete", "DiscreteTimeSimulator"]


def simulate_task_discrete(
    task_demand: int,
    owner_demand: float,
    request_probability: float,
    rng: np.random.Generator,
) -> tuple[float, int]:
    """Unit-by-unit discrete-time walk of one task (the paper's model, literally).

    The task performs ``task_demand`` units of work; after each unit the owner
    requests the CPU with probability ``P`` and, if so, runs ``O`` units while
    the task is suspended.  Returns ``(task_time, interruptions)``.
    """
    if int(task_demand) != task_demand or task_demand < 1:
        raise ValueError(f"task_demand must be a positive integer, got {task_demand!r}")
    time = 0.0
    interruptions = 0
    for _ in range(int(task_demand)):
        time += 1.0
        if request_probability > 0.0 and rng.random() < request_probability:
            time += owner_demand
            interruptions += 1
    return time, interruptions


@register_backend
class DiscreteTimeSimulator(_ClosedFormBackend):
    """Faithful (slow) discrete-time simulation of the paper's model."""

    name = "discrete-time"

    def run(self) -> SimulationResult:
        """Simulate ``num_jobs`` independent jobs and return the estimates."""
        cfg = self.config
        scenario = cfg.effective_scenario
        probabilities = [station.request_probability for station in scenario.stations]
        demands = [station.owner.demand for station in scenario.stations]
        rng = self._streams.stream("discrete-time")
        t = int(cfg.task_demand)
        job_times = np.empty(cfg.num_jobs, dtype=np.float64)
        task_times = np.empty((cfg.num_jobs, cfg.workstations), dtype=np.float64)
        for j in range(cfg.num_jobs):
            for w in range(cfg.workstations):
                task_time, _ = simulate_task_discrete(
                    t, demands[w], probabilities[w], rng
                )
                task_times[j, w] = task_time
            job_times[j] = task_times[j].max()
        return SimulationResult(
            config=cfg,
            mode=self.name,
            job_times=job_times,
            task_times=task_times.ravel(),
        )
