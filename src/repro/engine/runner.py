"""Parallel sweep execution over grids of simulation points.

The paper's figures are grids of independent ``(W, T, U, mode)`` simulation
points, so reproducing them is embarrassingly parallel.  :class:`SweepRunner`
fans a list of :class:`~repro.backends.SimulationConfig` points out across a
:class:`concurrent.futures.ProcessPoolExecutor`, short-circuiting points
already present in an optional :class:`~repro.engine.cache.ResultCache` so a
re-run of a figure replays cached raw samples instead of resimulating.
Back-ends are resolved through the registry in :mod:`repro.backends.base`,
so a newly registered backend is sweepable without touching this module.

:meth:`SweepRunner.run` is the one entry point.  Points requested as
``event-driven`` or ``open-system`` execute on the ``event-kernel`` backend,
the array kernel pinned bitwise to those generator oracles (which stay
registered as the references the pins compare against).  Monte-Carlo group
sampling is the one opt-in route (``vectorized=True``).

With a cache attached, a sweep moves entries, not arrays: a hit is its
entry's checked bytes, a pool worker returns its point's entry in place of
the result, and :attr:`SweepOutcome.results` decodes them only when asked.

Determinism: each point carries its own seed and every backend builds its
random streams from that seed alone (via
:class:`~repro.desim.StreamRegistry`), so the results are bitwise-identical
whether a sweep runs serially, across processes, or partially from cache.

Observability: every execution path is instrumented through
:mod:`repro.obs` — per-path point counters and a per-point latency histogram
in the process-global metrics registry, and (when tracing is configured)
one ``sweep`` span per run with one ``point`` span per executed point,
emitted *inside* the worker that ran it (the trace path travels in the work
item, so pool workers append to the same trace file).  All of it is
observer-only: a traced, metric-counted run is bitwise-identical to a bare
one.
"""

from __future__ import annotations

import cProfile
import io
import os
import pstats
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

from ..backends import (
    OpenSystemResult,
    SimulationConfig,
    SimulationResult,
    get_backend,
)
from ..obs import REGISTRY, active_trace_path, configure_tracing, trace_span

#: Either flavour of completed simulation point (closed or open system).
PointResult = SimulationResult | OpenSystemResult
from .cache import ResultCache, decode_entry, encode_entry

__all__ = [
    "SweepOutcome",
    "SweepRunner",
    "merge_profile_stats",
    "parallel_map",
    "resolve_jobs",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

# Sweep observability (counted in the parent process, which owns the cache
# and collects every worker's measurements — the registry of a pool worker
# dies with the worker and is never scraped).
_POINTS = REGISTRY.counter(
    "repro_sweep_points_total",
    "Sweep points by execution path, counted per run "
    "(simulated / cached / sampler-batched)",
    ("path",),
)
_POINT_SECONDS = REGISTRY.histogram(
    "repro_sweep_point_seconds",
    "Wall-clock seconds per individually executed point (measured in its "
    "worker, observed by the parent)",
)
_BATCH_SECONDS = REGISTRY.histogram(
    "repro_sweep_batch_seconds",
    "Wall-clock seconds per Monte-Carlo sampler group pass",
)
_SWEEPS = REGISTRY.counter("repro_sweeps_total", "Sweep executions")

#: The bitwise-pinned oracle modes the array kernel executes, each mapped to
#: whether its scenarios are open (job-stream) ones.
_KERNEL_ORACLES = {"event-driven": False, "open-system": True}

#: The backend executing the oracles' points.
_KERNEL_MODE = "event-kernel"

#: The backend whose ``run_batch`` the ``vectorized`` opt-in draws through.
_SAMPLED_MODE = "monte-carlo"


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a worker-count request (``None`` means one per CPU)."""
    if jobs is None:
        return max(1, os.cpu_count() or 1)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs!r}")
    return int(jobs)


def _executor(config: SimulationConfig, mode: str) -> str:
    """The backend that executes one point requested under ``mode``.

    An oracle's points run on the array kernel.  A config outside the
    oracle's scope (an open scenario under ``event-driven``, a closed one
    under ``open-system``) stays on the oracle, so it fails with the
    oracle's own ``ValueError`` exactly as a direct run would.
    """
    is_open = _KERNEL_ORACLES.get(mode)
    if is_open is not None and is_open == config.effective_scenario.is_open:
        return _KERNEL_MODE
    return mode


def _simulate_point(item: tuple[SimulationConfig, str]) -> PointResult:
    """Bare backend dispatch for one point (no instrumentation).

    Dispatches through the backend registry.  Workers see every backend
    registered at import time of its defining module; a backend registered
    dynamically at runtime reaches forked workers too, but under the
    ``spawn``/``forkserver`` start methods it must live in a module the
    workers import (registration runs again on their fresh interpreter).
    """
    config, mode = item
    return get_backend(mode)(config).run()


#: One unit of sweep work: ``(config, mode, profile?, trace file, encode?)``.
_PointTask = tuple[SimulationConfig, str, bool, str | None, bool]


def _execute_point(
    task: _PointTask,
) -> tuple[PointResult | bytes, float, dict | None]:
    """Top-level worker entry point (must be picklable for the process pool).

    Returns ``(point, elapsed_seconds, profile stats or None)``.  ``point``
    is the result, or, if the task asks for it, the result's
    :func:`~repro.engine.cache.encode_entry` bytes in its place: the deflate
    runs in the pool, and only the entry crosses the pipe, never the sample
    arrays.  The elapsed wall time (of the simulation alone) is measured
    here, in the worker, so the parent can observe true per-point latencies
    into the histogram even when points run remotely.  With a trace path in
    the task, the worker adopts the parent's trace file and emits this
    point's span itself (pid/tid identify it).

    Caveat on the merged profile output: points whose policy throws
    interrupts into suspended generators (``gen.throw`` unwinds frames the C
    profiler then pops past) lose their synthetic top-of-stack rows —
    ``_simulate_point`` under-counts relative to ``simulated``.  The hot-path
    rows themselves (desim stepping, resource churn) keep correct counts and
    cumulative times, which is what the report is for.
    """
    config, mode, profile, trace_path, encode = task
    if trace_path is not None:
        configure_tracing(trace_path)
    stats: dict | None = None
    started = time.perf_counter()
    with trace_span(
        "point",
        mode=mode,
        workstations=int(config.workstations),
        task_demand=float(config.task_demand),
        seed=int(config.seed),
    ):
        if profile:
            profiler = cProfile.Profile()
            result = profiler.runcall(_simulate_point, (config, mode))
            profiler.create_stats()
            stats = profiler.stats
        else:
            result = _simulate_point((config, mode))
    elapsed = time.perf_counter() - started
    return encode_entry(result) if encode else result, elapsed, stats


class _ProfileCarrier:
    """The minimal duck type :class:`pstats.Stats` accepts as a source.

    ``pstats.Stats`` loads from any object exposing a raw ``stats`` dict and
    a ``create_stats()`` hook; this carrier re-wraps a dict that crossed a
    process boundary (the real profiler object is not picklable).
    """

    def __init__(self, stats: dict) -> None:
        self.stats = stats

    def create_stats(self) -> None:
        pass


def merge_profile_stats(stats_dicts: Iterable[dict]) -> pstats.Stats | None:
    """Fold per-worker ``cProfile`` stats dicts into one :class:`pstats.Stats`.

    Returns ``None`` when nothing was profiled — no dicts at all, or only
    empty ones (``pstats.Stats`` refuses to construct from an empty stats
    dict, so filtering here is what keeps a fully-cached profiled replay
    from raising instead of reporting "no samples").
    """
    carriers = [_ProfileCarrier(stats) for stats in stats_dicts if stats]
    if not carriers:
        return None
    merged = pstats.Stats(carriers[0])
    for carrier in carriers[1:]:
        merged.add(carrier)
    return merged


#: Seconds between a pool worker's checks that its parent still lives.
_PARENT_POLL_SECONDS = 0.5


def _exit_with_parent() -> None:
    """Pool initializer: end this worker once the process that started it is
    gone (killed, say), rather than compute for no one."""
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_SECONDS)
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


def parallel_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    jobs: int | None = 1,
) -> list[_R]:
    """Order-preserving map, in-process for ``jobs=1`` else over a process pool.

    ``fn`` and the items must be picklable when ``jobs != 1``.  A pool
    worker exits within :data:`_PARENT_POLL_SECONDS` of its parent's death.
    Used by the sweep runner and by the PVM validation measurements in
    :mod:`repro.experiments.figures`.
    """
    work = list(items)
    workers = resolve_jobs(jobs)
    if workers == 1 or len(work) <= 1:
        return [fn(item) for item in work]
    workers = min(workers, len(work))
    chunksize = max(1, len(work) // (workers * 4))
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_exit_with_parent
    ) as executor:
        return list(executor.map(fn, work, chunksize=chunksize))


@dataclass
class SweepOutcome:
    """Results of one sweep execution plus its bookkeeping.

    Every list is ordered like the input grid.  ``modes`` names the backend
    that produced each point; ``mode`` is the one the sweep requested.
    ``entries`` holds each point's compressed cache entry
    (:func:`~repro.engine.cache.encode_entry` bytes), as read from the cache
    or shipped by the pool worker that simulated it, or ``None`` for a
    point without one: a sampled (``vectorized``) point, or any point of a
    run without a cache.  ``held`` holds the result of each point without
    an entry, and ``None`` for the rest.  ``simulated`` counts points
    actually executed this run; ``cache_hits`` counts points replayed from
    the cache (``simulated + cache_hits == len(outcome)``).
    ``vectorized_groups`` counts the shared-shape groups a ``vectorized``
    sweep drew in single batched passes.

    :attr:`results` decodes the entries on first access, so a caller that
    needs only the entries — the service, which splices them into its
    payload — never builds a sample array; a decoded result holds float64
    arrays, as a cache hit always has.  ``len()`` and :meth:`summary`
    decode nothing.
    """

    configs: list[SimulationConfig] = field(repr=False)
    modes: list[str]
    entries: list[bytes | None] = field(repr=False)
    held: Sequence[PointResult | None] = field(repr=False)
    mode: str
    jobs: int
    simulated: int = 0
    cache_hits: int = 0
    elapsed_seconds: float = 0.0
    vectorized_groups: int = 0
    profile: pstats.Stats | None = None

    @cached_property
    def results(self) -> list[PointResult]:
        """Every point's result, each entry decoded on first access."""
        results: list[PointResult] = []
        for config, mode, entry, result in zip(
            self.configs, self.modes, self.entries, self.held, strict=True
        ):
            if result is None:
                assert entry is not None, "a point holds its entry or its result"
                result = decode_entry(config, mode, entry)
            results.append(result)
        return results

    def __len__(self) -> int:
        return len(self.modes)

    def __iter__(self) -> Iterator[PointResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> PointResult:
        return self.results[index]

    def summary(self) -> str:
        """One-line execution report for logs and the CLI."""
        line = (
            f"{len(self)} points ({self.simulated} simulated, "
            f"{self.cache_hits} cached) mode={self.mode} jobs={self.jobs} "
            f"in {self.elapsed_seconds:.2f}s"
        )
        if self.vectorized_groups:
            line += f", {self.vectorized_groups} vectorized groups"
        return line

    def profile_report(self, top: int = 15) -> str:
        """Top-``top`` cumulative-time profile lines merged across workers.

        Only populated when the sweep ran with ``profile=True``; returns a
        one-line "no profile collected" note otherwise.  An outcome with
        zero executed points (a fully-cached replay) has no samples even
        when profiling was requested — that is a note too, never an error.
        """
        if self.profile is None or not getattr(self.profile, "stats", None):
            return (
                "no profile collected (profiling off or no point executed "
                "this run — e.g. a fully-cached replay)\n"
            )
        stream = io.StringIO()
        self.profile.stream = stream
        self.profile.sort_stats("cumulative").print_stats(top)
        return stream.getvalue()


class SweepRunner:
    """Execute grids of simulation points, in parallel and through a cache.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (the default) runs in-process — bitwise
        identical to calling :func:`~repro.backends.run_simulation` in a
        loop — and ``None`` uses one worker per CPU.
    cache:
        Optional :class:`ResultCache` (or a directory path, which constructs
        one).  Hits skip simulation entirely; misses are simulated and stored.
    mode:
        Default backend for :meth:`run` (overridable per call); any name
        registered via :func:`repro.backends.register_backend`.
    """

    def __init__(
        self,
        jobs: int | None = 1,
        cache: ResultCache | str | os.PathLike | None = None,
        mode: str = "monte-carlo",
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.mode = mode

    def run(
        self,
        configs: Sequence[SimulationConfig],
        mode: str | None = None,
        profile: bool = False,
        vectorized: bool = False,
    ) -> SweepOutcome:
        """Execute every point of the grid; results keep the input order.

        Every point takes the same path: cache lookup, execution over the
        worker pool, cache store.  Points requested as ``event-driven`` or
        ``open-system`` execute on the ``event-kernel`` backend — bitwise
        equal to those oracles and sharing their cache entries — so their
        results are labelled ``event-kernel``.

        ``vectorized=True`` opts ``monte-carlo`` points into group sampling:
        the grid is grouped by shared ``(W, T, num_jobs)`` shape and each
        group is drawn in one ``run_batch`` pass.  That is statistically
        identical to the per-point path but not bitwise (a group shares one
        stream), so sampled points bypass the cache.  Other modes ignore it.

        With ``profile=True`` every simulated point runs under ``cProfile``
        *inside its worker process* (sampled groups profile in-process); the
        stats merge into :attr:`SweepOutcome.profile` (render it with
        :meth:`SweepOutcome.profile_report`).  Cached points execute nothing
        and therefore contribute nothing to the profile.
        """
        mode = mode or self.mode
        get_backend(mode)  # fail fast on an unregistered mode
        configs = list(configs)
        started = time.perf_counter()
        sampled = vectorized and mode == _SAMPLED_MODE
        with trace_span(
            "sweep", mode=mode, points=len(configs), jobs=self.jobs, sampled=sampled
        ):
            if sampled:
                held, groups, profiles = _sample_groups(configs, profile)
                modes = [result.mode for result in held]
                entries: list[bytes | None] = [None] * len(held)
                cache_hits = 0
            else:
                modes, entries, held, cache_hits, profiles = self._run_points(
                    configs, mode, profile
                )
                groups = 0

        simulated = len(configs) - cache_hits
        _SWEEPS.inc()
        _POINTS.labels(path="simulated").inc(simulated)
        _POINTS.labels(path="cached").inc(cache_hits)
        if sampled:
            _POINTS.labels(path="sampler-batched").inc(simulated)
        return SweepOutcome(
            configs=configs,
            modes=modes,
            entries=entries,
            held=held,
            mode=mode,
            jobs=self.jobs,
            simulated=simulated,
            cache_hits=cache_hits,
            elapsed_seconds=time.perf_counter() - started,
            vectorized_groups=groups,
            profile=merge_profile_stats(profiles),
        )

    def _run_points(
        self, configs: list[SimulationConfig], mode: str, profile: bool
    ) -> tuple[list[str], list[bytes | None], list[Any], int, list[dict]]:
        """The per-point path; returns ``(modes, entries, held, hits, profiles)``.

        With a cache, a hit is its checked entry bytes and a miss's worker
        ships its entry in place of its result, so no result is held;
        without one, every point's result is.
        """
        modes = [_executor(config, mode) for config in configs]
        entries: list[bytes | None] = [None] * len(configs)
        held: list[Any] = [None] * len(configs)
        pending: list[int] = []
        cache = self.cache
        for index, (config, executor) in enumerate(zip(configs, modes)):
            if cache is not None:
                entries[index] = cache.read_entry(config, executor)
            if entries[index] is None:
                pending.append(index)

        trace_path = active_trace_path()
        encode = cache is not None
        executed = parallel_map(
            _execute_point,
            [(configs[i], modes[i], profile, trace_path, encode) for i in pending],
            jobs=self.jobs,
        )
        profiles: list[dict] = []
        for index, (point, elapsed, stats) in zip(pending, executed):
            _POINT_SECONDS.observe(elapsed)
            if stats:
                profiles.append(stats)
            if cache is not None and isinstance(point, bytes):
                entries[index] = point
                cache.write_entry(configs[index], modes[index], point)
            else:
                held[index] = point
        return modes, entries, held, len(configs) - len(pending), profiles


def _sample_groups(
    configs: list[SimulationConfig], profile: bool
) -> tuple[list[PointResult], int, list[dict]]:
    """Monte-Carlo group sampling; returns ``(results, groups, profiles)``.

    Configs sharing ``(W, T, num_jobs, num_batches, confidence)`` form one
    group — homogeneous utilization curves and heterogeneous static-policy
    scenarios alike — drawn in one ``run_batch`` pass that samples each job
    time directly from its exact distribution.  A config the sampler cannot
    express raises its ``ValueError`` exactly as the per-point path would.
    """
    groups: dict[tuple, list[int]] = {}
    for index, config in enumerate(configs):
        key = (
            config.workstations,
            float(config.task_demand),
            config.num_jobs,
            config.num_batches,
            float(config.confidence),
        )
        groups.setdefault(key, []).append(index)
    backend = get_backend(_SAMPLED_MODE)
    profiler = cProfile.Profile() if profile else None
    results: list[Any] = [None] * len(configs)
    for indices in groups.values():
        group = [configs[i] for i in indices]
        started = time.perf_counter()
        with trace_span("sampler-group", points=len(group)):
            if profiler is None:
                batch = backend.run_batch(group)
            else:
                batch = profiler.runcall(backend.run_batch, group)
        _BATCH_SECONDS.observe(time.perf_counter() - started)
        for index, result in zip(indices, batch):
            results[index] = result
    if profiler is None or not groups:
        return results, len(groups), []
    profiler.create_stats()
    return results, len(groups), [profiler.stats]
