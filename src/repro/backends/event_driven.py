"""Event-driven backend: explicit workstations, cycling owners, preemption.

Unlike the model-faithful discrete back-ends, owners here cycle continuously
(they may be mid-service when a task arrives), owner demands may follow any
variate — including the replay of a recorded
:class:`~repro.workload.OwnerActivityTrace` for stations declared with
``demand_kind="trace"`` — and the task split may be imbalanced.  This is the
back-end used by the ablation experiments.
"""

from __future__ import annotations

import numpy as np

from ..cluster.job import JobResult, balanced_tasks, imbalanced_tasks
from ..cluster.owner import OwnerBehavior
from ..cluster.policies import make_policy
from ..cluster.workstation import Workstation
from ..core.params import ScenarioSpec
from ..desim import Environment
from ..obs import get_sim_tap
from .base import (
    SimulationBackend,
    SimulationConfig,
    SimulationResult,
    _reject_open_scenario,
    register_backend,
)

__all__ = ["EventDrivenClusterSimulator"]


def _split_demands(
    total_demand: float,
    scenario: ScenarioSpec,
    workstations: int,
    placement_rng: np.random.Generator,
) -> np.ndarray:
    """Per-station task demands of one job under the scenario's placement.

    Shared by the closed and open event-driven back-ends — the bitwise
    open-to-closed reduction relies on both splitting jobs identically.
    """
    if scenario.imbalance == 0.0:
        return balanced_tasks(total_demand, workstations)
    return imbalanced_tasks(
        total_demand, workstations, scenario.imbalance, placement_rng
    )


@register_backend
class EventDrivenClusterSimulator(SimulationBackend):
    """Full process-oriented simulation with explicit workstations and owners."""

    name = "event-driven"

    @classmethod
    def check(cls, config: SimulationConfig) -> None:
        _reject_open_scenario(config.effective_scenario, cls.name)

    def _build_cluster(self, env: Environment) -> list[Workstation]:
        # Wire the process's installed sim-event tap (if any) into each
        # station's bare hook — the cluster layer never imports repro.obs.
        tap = get_sim_tap()
        stations = []
        for w, spec in enumerate(self.config.effective_scenario.stations):
            behavior = OwnerBehavior.from_station(spec)
            station = Workstation(
                env, w, behavior, self._streams.stream(f"owner-{w}")
            )
            if tap is not None:
                station.tap = tap.record
            station.start_owner()
            stations.append(station)
        return stations

    def run(self) -> SimulationResult:
        """Run ``num_jobs`` back-to-back jobs on a persistent cluster."""
        cfg = self.config
        scenario = cfg.effective_scenario
        policy = make_policy(scenario.policy, **dict(scenario.policy_kwargs))
        env = Environment()
        stations = self._build_cluster(env)
        placement_rng = self._streams.stream("placement")

        job_times = np.empty(cfg.num_jobs, dtype=np.float64)
        task_times: list[float] = []
        results: list[JobResult] = []

        def run_one_job(job_id: int):
            start = env.now
            demands = _split_demands(
                cfg.job_demand, scenario, cfg.workstations, placement_rng
            )
            tasks = yield from policy.run_job(env, stations, demands)
            results.append(JobResult(job_id=job_id, start_time=start, tasks=tasks))

        def driver():
            for job_id in range(cfg.num_jobs):
                yield env.process(run_one_job(job_id))

        driver_proc = env.process(driver())
        # Owners cycle forever, so run only until the driver has finished all jobs.
        env.run(until=driver_proc)

        for i, job in enumerate(results):
            job_times[i] = job.response_time
            task_times.extend(task.execution_time for task in job.tasks)

        measured_util = float(
            np.mean([s.measured_owner_utilization() for s in stations])
        )
        return SimulationResult(
            config=cfg,
            mode=self.name,
            job_times=job_times,
            task_times=np.asarray(task_times, dtype=np.float64),
            measured_owner_utilization=measured_util,
        )
