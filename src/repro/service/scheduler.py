"""Shard scheduler: one job's grid, executed shard by shard.

The service does not run a job's whole grid in one :meth:`SweepRunner.run`
call.  It slices the grid into fixed-size shards (grid order preserved) and
executes them one shard at a time, firing a progress callback after each —
that callback is how the job record streams ``points_completed`` /
``cache_hits`` counters to pollers while the job is still running, and why
a crash mid-job loses at most one shard of work (completed shards are
already in the shared result cache, so a recovery rerun replays them as
hits).

Sharding is free under the engine's determinism contract: every point's
seed derives from its own config, never from its position in a batch, so
``run(shard_a) + run(shard_b)`` is bitwise-identical to
``run(shard_a + shard_b)``.  Every shard goes through
:meth:`SweepRunner.run`; the ``vectorized`` executor only turns on its
Monte-Carlo sampling opt-in.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

from ..backends import SimulationConfig
from ..engine import SweepOutcome, SweepRunner
from ..obs import REGISTRY, trace_span

__all__ = ["DEFAULT_SHARD_SIZE", "ShardProgress", "ShardScheduler"]

_SHARD_SECONDS = REGISTRY.histogram(
    "repro_shard_seconds",
    "Wall-clock seconds per completed shard, by executor entry point",
    ("executor",),
)
_ETA_SECONDS = REGISTRY.gauge(
    "repro_job_eta_seconds",
    "Estimated seconds until the currently running job completes "
    "(mean completed-shard latency times shards remaining; 0 when idle)",
)

#: Default points per shard — small enough that progress streams and a crash
#: costs little rework, large enough that the vectorized executor still sees
#: whole sampler groups to batch in typical figure grids.
DEFAULT_SHARD_SIZE = 16


class ShardProgress:
    """Accumulated execution counters across a job's completed shards.

    Mirrors the diagnostic fields of :class:`~repro.engine.SweepOutcome`,
    summed shard by shard; ``merge`` returns ``self`` so callbacks can read
    the running totals straight off the object they were handed.

    ``eta_seconds`` is the scheduler's completion estimate — mean latency of
    the shards finished so far times the shards remaining — refreshed on
    every shard boundary, so pollers see it shrink as the job drains (and
    see it honestly jump if later shards run slower than early cache hits).
    """

    def __init__(self, total_points: int, shards_total: int) -> None:
        self.total_points = total_points
        self.shards_total = shards_total
        self.shards_completed = 0
        self.points_completed = 0
        self.simulated = 0
        self.cache_hits = 0
        self.vectorized_groups = 0
        self.eta_seconds: float | None = None
        self._elapsed_seconds = 0.0

    def merge(self, outcome: SweepOutcome) -> "ShardProgress":
        self.shards_completed += 1
        self.points_completed += len(outcome.results)
        self.simulated += outcome.simulated
        self.cache_hits += outcome.cache_hits
        self.vectorized_groups += outcome.vectorized_groups
        self._elapsed_seconds += outcome.elapsed_seconds
        remaining = self.shards_total - self.shards_completed
        self.eta_seconds = (
            self._elapsed_seconds / self.shards_completed
        ) * remaining
        return self


class ShardScheduler:
    """Split grids across a :class:`SweepRunner` and stream progress.

    Parameters
    ----------
    runner:
        The worker pool (and shared cache) every shard runs through.
    shard_size:
        Points per shard; the last shard may be smaller.
    """

    def __init__(
        self, runner: SweepRunner, shard_size: int = DEFAULT_SHARD_SIZE
    ) -> None:
        if shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        self.runner = runner
        self.shard_size = shard_size

    def shards(
        self, configs: Sequence[SimulationConfig]
    ) -> list[list[SimulationConfig]]:
        """Slice a grid into submission-order shards."""
        configs = list(configs)
        return [
            configs[start : start + self.shard_size]
            for start in range(0, len(configs), self.shard_size)
        ]

    def execute(
        self,
        configs: Sequence[SimulationConfig],
        mode: str,
        executor: str = "sweep",
        on_shard: Callable[[ShardProgress], None] | None = None,
    ) -> tuple[list, list[bytes | None], ShardProgress]:
        """Run every shard; returns ``(results, entries, progress)``.

        ``results`` and their cache ``entries`` (see
        :attr:`~repro.engine.SweepOutcome.entries`) are concatenated shard
        by shard, in grid order.  ``on_shard`` fires after each shard with
        the running :class:`ShardProgress` totals — the service persists the
        job record there.  ``executor="vectorized"`` opts the shards' Monte-Carlo
        points into group sampling (see :meth:`SweepRunner.run`).
        """
        shards = self.shards(configs)
        progress = ShardProgress(
            total_points=sum(len(shard) for shard in shards),
            shards_total=len(shards),
        )
        results: list = []
        entries: list[bytes | None] = []
        for number, shard in enumerate(shards, start=1):
            started = time.perf_counter()
            with trace_span(
                "shard",
                executor=executor,
                shard=number,
                shards_total=len(shards),
                points=len(shard),
            ):
                outcome = self.runner.run(
                    shard, mode=mode, vectorized=executor == "vectorized"
                )
            _SHARD_SECONDS.labels(executor=executor).observe(
                time.perf_counter() - started
            )
            results.extend(outcome.results)
            entries.extend(outcome.entries)
            progress.merge(outcome)
            _ETA_SECONDS.set(progress.eta_seconds or 0.0)
            if on_shard is not None:
                on_shard(progress)
        _ETA_SECONDS.set(0.0)
        return results, entries, progress
