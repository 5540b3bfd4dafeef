"""Vectorised Monte-Carlo backends: direct sampling of the model's closed form.

``monte-carlo`` (:class:`MonteCarloSampler`) draws the full per-task binomial
interruption tensor exactly like the seed implementation (bitwise-stable
against the discrete-time cross-checks).  ``monte-carlo-max``
(:class:`MonteCarloMaxSampler`) is the fast one: instead of drawing every one
of the ``num_jobs x W`` per-task binomials, it samples each job's completion
time *directly* from the exact max-distribution of the job — one inverse-CDF
lookup per job per group of identical stations — which makes it several
times faster on wide or heterogeneous points.  Each point draws from a
stream of its own config's seed, so its samples depend on nothing else and
it takes the sweep's per-point route (cache, pool, shards) like any backend.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from ..core.distributions import binomial_cdf
from .base import SimulationResult, _ClosedFormBackend, register_backend

__all__ = ["MonteCarloMaxSampler", "MonteCarloSampler"]


@register_backend
class MonteCarloSampler(_ClosedFormBackend):
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
        scenario = cfg.effective_scenario
        probabilities = np.array(
            [station.request_probability for station in scenario.stations]
        )
        rng = self._streams.stream("monte-carlo")
        n = num_jobs if num_jobs is not None else cfg.num_jobs
        t = int(cfg.task_demand)
        return rng.binomial(t, probabilities, size=(n, cfg.workstations))

    def run(self) -> SimulationResult:
        """Sample ``num_jobs`` jobs and return the estimates."""
        cfg = self.config
        scenario = cfg.effective_scenario
        owner_demands = np.array(
            [station.owner.demand for station in scenario.stations]
        )
        t = int(cfg.task_demand)
        interruptions = self.sample_interruptions()
        task_times = t + interruptions * owner_demands
        job_times = task_times.max(axis=1).astype(np.float64)
        return SimulationResult(
            config=cfg,
            mode=self.name,
            job_times=job_times,
            task_times=task_times.ravel().astype(np.float64),
        )


@register_backend
class MonteCarloMaxSampler(_ClosedFormBackend):
    """Direct sampler of each job's time from its exact max-distribution.

    The stations of the config are grouped by identical ``(P, O)``; the
    maximum task time over a group of ``m`` such stations has CDF ``F^m``
    (with ``F`` the binomial task-time CDF), so one uniform draw plus an
    inverse-CDF table lookup yields the group maximum, and the job time is
    the max over the (few) groups instead of over all ``W`` stations.

    Statistically identical to :class:`MonteCarloSampler` — the marginal
    job-time distribution is exact — but not bitwise: it turns the config's
    random stream into samples another way.  Task times are ``num_jobs``
    samples from the per-station mixture (one randomly placed task per job)
    rather than ``num_jobs x W``; the estimator of ``E_t`` is unbiased
    either way.
    """

    name = "monte-carlo-max"

    def run(self) -> SimulationResult:
        """Sample ``num_jobs`` job times and one task time per job."""
        cfg = self.config
        t = int(cfg.task_demand)
        scenario = cfg.effective_scenario
        rng = self._streams.stream("monte-carlo-batch")
        n = cfg.num_jobs
        pairs = [
            (station.request_probability, station.owner.demand)
            for station in scenario.stations
        ]
        groups = Counter(pairs)  # members per (P, O), in station order
        cdfs = {p: binomial_cdf(t, p) for p, _ in groups if p != 0.0}
        # Idle stations (P = 0) contribute exactly t, the floor every task
        # time already satisfies, so they need no draws at all.
        job_times = np.full(n, float(t))
        for (p, demand), members in groups.items():
            if p == 0.0:
                continue
            table = cdfs[p] ** members
            table[-1] = 1.0
            counts = np.searchsorted(table, rng.random(n), side="left")
            np.maximum(job_times, t + counts * demand, out=job_times)
        # One representative task per job, placed uniformly at random.
        group_index = {pair: i for i, pair in enumerate(groups)}
        group_of_station = np.array(
            [group_index[pair] for pair in pairs], dtype=np.int64
        )
        placed = group_of_station[rng.integers(0, cfg.workstations, size=n)]
        task_times = np.full(n, float(t))
        for index, (p, demand) in enumerate(groups):
            mask = placed == index
            hits = int(mask.sum())
            if p == 0.0 or hits == 0:
                continue
            counts = np.searchsorted(cdfs[p], rng.random(hits), side="left")
            task_times[mask] = t + counts * demand
        return SimulationResult(
            config=cfg, mode=self.name, job_times=job_times, task_times=task_times
        )
