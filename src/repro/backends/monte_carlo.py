"""Vectorised Monte-Carlo backend: direct sampling of the model's closed form.

The per-config :meth:`MonteCarloSampler.run` draws the full per-task binomial
interruption tensor exactly like the seed implementation (bitwise-stable
against the discrete-time cross-checks).  The multi-config
:meth:`MonteCarloSampler.run_batch` is the sweep engine's fast path: instead
of drawing every one of the ``k x num_jobs x W`` per-task binomials, it
samples each job's completion time *directly* from the exact max-distribution
of the job — one inverse-CDF lookup per job per group of identical stations —
which is what makes vectorized heterogeneous sweeps several times faster than
the scalar per-config path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.distributions import binomial_cdf
from ..desim import StreamRegistry
from .base import (
    SimulationBackend,
    SimulationConfig,
    SimulationResult,
    _integral_task_demand,
    _static_scenario,
    register_backend,
)

__all__ = ["MonteCarloSampler"]


@register_backend
class MonteCarloSampler(SimulationBackend):
    """Vectorised direct sampler of the analytical model's closed form."""

    name = "monte-carlo"

    def sample_interruptions(self, num_jobs: int | None = None) -> np.ndarray:
        """Sample the per-task interruption counts, shape ``(num_jobs, W)``.

        Station ``w``'s count is ``Binomial(T, P_w)``; for a homogeneous
        scenario all stations share one ``P`` and the draw is bit-for-bit the
        classic homogeneous sample (numpy consumes the stream identically for
        a scalar and an equal-valued vector ``p``).
        """
        cfg = self.config
        scenario = _static_scenario(cfg, self.name)
        probabilities = np.array(
            [station.request_probability for station in scenario.stations]
        )
        rng = self._streams.stream("monte-carlo")
        n = num_jobs if num_jobs is not None else cfg.num_jobs
        t = _integral_task_demand(cfg.task_demand, self.name)
        return rng.binomial(t, probabilities, size=(n, cfg.workstations))

    def run(self) -> SimulationResult:
        """Sample ``num_jobs`` jobs and return the estimates."""
        cfg = self.config
        scenario = _static_scenario(cfg, self.name)
        owner_demands = np.array(
            [station.owner.demand for station in scenario.stations]
        )
        t = _integral_task_demand(cfg.task_demand, self.name)
        interruptions = self.sample_interruptions()
        task_times = t + interruptions * owner_demands
        job_times = task_times.max(axis=1).astype(np.float64)
        return SimulationResult(
            config=cfg,
            mode=self.name,
            job_times=job_times,
            task_times=task_times.ravel().astype(np.float64),
        )

    @classmethod
    def run_batch(
        cls,
        configs: Sequence[SimulationConfig],
        seed: int | None = None,
    ) -> list[SimulationResult]:
        """Sample several configs sharing one ``(W, T)`` cell in one fast pass.

        A sweep evaluates the same ``(W, T, num_jobs)`` grid cell under ``k``
        different owner mixes — homogeneous utilization curves as well as
        heterogeneous (static-policy) scenarios, each contributing its
        per-station probability row.  Rather than drawing the full
        ``k x num_jobs x W`` per-task binomial tensor, this path samples each
        job's completion time directly from its *exact* distribution: the
        stations of a config are grouped by identical ``(P, O)``; the maximum
        task time over a group of ``m`` such stations has CDF ``F^m`` (with
        ``F`` the binomial task-time CDF), so one uniform draw plus an
        inverse-CDF table lookup yields the group maximum, and the job time
        is the max over the (few) groups instead of over all ``W`` stations.

        Statistically identical to per-config :meth:`run` calls — the
        marginal job-time distribution is exact — but *not* bitwise (the
        batch shares a single stream seeded from ``seed``, default: the first
        config's seed).  Task times are reported as ``num_jobs`` samples from
        the per-station mixture (one randomly placed task per job) rather
        than the scalar path's ``num_jobs x W``; the estimator of ``E_t`` is
        unbiased either way.
        """
        if not configs:
            return []
        first = configs[0]
        t = _integral_task_demand(first.task_demand, cls.name)
        for cfg in configs[1:]:
            if (
                cfg.workstations != first.workstations
                or float(cfg.task_demand) != float(first.task_demand)
                or cfg.num_jobs != first.num_jobs
                or cfg.num_batches != first.num_batches
                or cfg.confidence != first.confidence
            ):
                raise ValueError(
                    "run_batch requires configs sharing workstations, "
                    "task_demand, num_jobs, num_batches and confidence; "
                    f"got {cfg!r} vs {first!r}"
                )
        scenarios = [_static_scenario(cfg, cls.name) for cfg in configs]
        streams = StreamRegistry(seed if seed is not None else first.seed)
        rng = streams.stream("monte-carlo-batch")
        n, workstations = first.num_jobs, first.workstations
        cdf_cache: dict[float, np.ndarray] = {}

        def base_cdf(p: float) -> np.ndarray:
            if p not in cdf_cache:
                cdf_cache[p] = binomial_cdf(t, p)
            return cdf_cache[p]

        results: list[SimulationResult] = []
        for cfg, scenario in zip(configs, scenarios):
            pairs = [
                (station.request_probability, station.owner.demand)
                for station in scenario.stations
            ]
            groups: dict[tuple[float, float], int] = {}
            for pair in pairs:
                groups[pair] = groups.get(pair, 0) + 1
            # Idle stations (P = 0) contribute exactly t, the floor every
            # task time already satisfies, so they need no draws at all.
            job_times = np.full(n, float(t))
            for (p, demand), members in groups.items():
                if p == 0.0:
                    continue
                table = base_cdf(p) ** members
                table[-1] = 1.0
                counts = np.searchsorted(table, rng.random(n), side="left")
                np.maximum(job_times, t + counts * demand, out=job_times)
            # One representative task per job, placed uniformly at random.
            group_index = {pair: i for i, pair in enumerate(groups)}
            group_of_station = np.array(
                [group_index[pair] for pair in pairs], dtype=np.int64
            )
            placed = group_of_station[rng.integers(0, workstations, size=n)]
            task_times = np.full(n, float(t))
            for index, (p, demand) in enumerate(groups):
                mask = placed == index
                hits = int(mask.sum())
                if p == 0.0 or hits == 0:
                    continue
                counts = np.searchsorted(
                    base_cdf(p), rng.random(hits), side="left"
                )
                task_times[mask] = t + counts * demand
            results.append(
                SimulationResult(
                    config=cfg,
                    mode=cls.name,
                    job_times=job_times,
                    task_times=task_times,
                )
            )
        return results
