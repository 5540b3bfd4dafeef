"""Sweep-execution engine: parallel fan-out plus an on-disk result cache.

This package is the scaffolding for scaling the reproduction: every
experiment that evaluates a grid of independent simulation points goes
through :class:`SweepRunner`, which executes the points across worker
processes (``jobs``), replays completed points from a :class:`ResultCache`
(keyed by a stable config fingerprint) and guarantees bitwise-identical
results regardless of worker count because every point owns its seed.

>>> from repro.engine import SweepRunner, build_grid
>>> outcome = SweepRunner(jobs=1).run(build_grid("fig01", num_jobs=100,
...     workstation_counts=(5, 10), utilizations=(0.1,)))
>>> len(outcome.results)
2
"""

from .cache import CACHE_VERSION, SCHEMA_HISTORY, ResultCache, config_fingerprint
from .grids import (
    GRID_AXES,
    GRID_NAMES,
    MAX_GRID_POINTS,
    MAX_POINT_TASKS,
    MAX_WORKSTATIONS,
    PAPER_UTILIZATIONS,
    build_grid,
    grid_mode,
    saturation_rate,
)
from .runner import (
    SweepOutcome,
    SweepRunner,
    merge_profile_stats,
    parallel_map,
    resolve_jobs,
)

__all__ = [
    "CACHE_VERSION",
    "SCHEMA_HISTORY",
    "ResultCache",
    "config_fingerprint",
    "GRID_AXES",
    "GRID_NAMES",
    "MAX_GRID_POINTS",
    "MAX_POINT_TASKS",
    "MAX_WORKSTATIONS",
    "PAPER_UTILIZATIONS",
    "build_grid",
    "saturation_rate",
    "grid_mode",
    "SweepOutcome",
    "SweepRunner",
    "merge_profile_stats",
    "parallel_map",
    "resolve_jobs",
]
