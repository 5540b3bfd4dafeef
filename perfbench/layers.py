"""The traced run: per-layer metrics for one workload.

It has three parts:

1. One untraced session against a live ``serve``, as in the timed run.  It
   gives the job latency the spans are compared with, the cache hit ratio
   from the job records, and, at its end, the HTTP round trip (on fresh and
   on kept-alive connections) and submit times of the live server.
2. An in-process replay of the same job list, in the order the service
   works: spec resolve; fingerprint and cache load per point; backend run,
   pickle round trip and cache store per missed point; result NPZ encode;
   job-record save.  Each call runs inside a span (name, start, end,
   parent, job id).  Spans stay in memory and are written at the end as a
   Chrome trace-event file that Perfetto loads.
3. Probes of layers the replay does not time on its own: imports, pool
   spin-up, the oracle, kernel and Monte-Carlo backends on fixed points,
   RNG draws, batch means and the job-store scan.

Spans are recorded from the benchmark's own code around public calls; the
program itself runs untraced.
"""

from __future__ import annotations

import json
import pickle
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import closing, contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(REPO / "src"))

from digests import load_reference, payload_digests  # noqa: E402
from serve import ServeProcess, nproc  # noqa: E402
from workloads import EVENT_GRIDS, FIGURE_GRIDS, job_key, session_jobs  # noqa: E402

#: Layers the replay times; those in ``POOLED`` run in the service's
#: process pool, so their wall time is their span time over the pool width.
REPLAY_LAYERS = (
    "spec_resolve", "fingerprint", "cache_load", "simulate", "transfer",
    "cache_store", "npz_encode", "jobstore_save",
)
POOLED = ("simulate", "transfer")
PROBE_POINTS = 6
HTTP_PROBES = 40
SUBMIT_PROBES = 10


class Tracer:
    """In-memory spans: ``[name, start, end, parent index, job id]``."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, job_id: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        entry = [name, time.perf_counter(), 0.0, parent, job_id]
        self._stack.append(len(self.spans))
        self.spans.append(entry)
        try:
            yield
        finally:
            entry[2] = time.perf_counter()
            self._stack.pop()

    def last_duration(self) -> float:
        _, start, end, _, _ = self.spans[-1]
        return end - start

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def write_chrome(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {"name": name, "ph": "X", "pid": 1, "tid": 1, "cat": "replay",
             "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
             "args": {"span_id": index, "parent": parent, "job_id": job_id}}
            for index, (name, start, end, parent, job_id) in enumerate(self.spans)
        ]
        path.write_text(json.dumps({"traceEvents": events}) + "\n", encoding="utf-8")


def _timed(fn: Callable[[], Any], repeats: int) -> float:
    """Median seconds of ``repeats`` calls."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _mean(values: list[float]) -> float:
    if not values:
        raise ValueError("no samples for a per-layer metric")
    return sum(values) / len(values)


def live_session(jobs: list[dict[str, Any]], run_dir: Path) -> dict[str, Any]:
    """The untraced session, plus HTTP probes on the live server at its end."""
    root = Path(tempfile.mkdtemp(prefix="serve-", dir=run_dir))
    try:
        with ServeProcess(REPO, root, nproc()) as serve:
            timings = [serve.run_job(job) for job in jobs]
            http_rtt = _timed(lambda: serve.request("GET", "/health"), HTTP_PROBES)
            with closing(serve.connect()) as conn:
                keepalive_rtt = _timed(lambda: serve.request("GET", "/health", conn=conn), HTTP_PROBES)
            body = json.dumps(jobs[0]).encode()
            submit = _timed(lambda: serve.request("POST", "/jobs", body), SUBMIT_PROBES)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    reference = load_reference()
    failed = sum(
        1 for t in timings
        if not t.ok or payload_digests(t.payload) != reference.get(job_key(t.job))
    )
    done = [t.record for t in timings if t.ok]
    return {
        "latencies": [t.latency_s for t in timings],
        "failed": failed,
        "hit_ratio": sum(r["cache_hits"] for r in done) / sum(r["total_points"] for r in done),
        "http_rtt_ms": http_rtt * 1e3,
        "keepalive_rtt_ms": keepalive_rtt * 1e3,
        "submit_ms": submit * 1e3,
    }


def replay(jobs: list[dict[str, Any]], root: Path, tracer: Tracer) -> dict[str, Any]:
    """Run the job list in-process, one span per layer call."""
    from repro.backends import SimulationResult, get_backend
    from repro.engine import ResultCache, config_fingerprint
    from repro.service import JobRecord, JobStore, SweepJobSpec, save_result_npz
    from repro.stats import batch_means_interval

    store = JobStore(root / "jobs")
    cache = ResultCache(root / "cache")
    results_dir = root / "results"
    points: list[int] = []
    simulated: list[int] = []
    transfer_bytes: list[int] = []
    result_bytes = 0
    hit_loads: list[float] = []
    batch_means_s: list[float] = []
    for index, job in enumerate(jobs):
        job_id = f"job-{index + 1:06d}"
        with tracer.span("job", job_id):
            with tracer.span("spec_resolve", job_id):
                spec = SweepJobSpec.from_json(job)
                configs, mode = spec.resolve()
            results = []
            misses = 0
            for config in configs:
                with tracer.span("fingerprint", job_id):
                    config_fingerprint(config, mode)
                with tracer.span("cache_load", job_id):
                    result = cache.load(config, mode)
                if result is not None:
                    hit_loads.append(tracer.last_duration())
                else:
                    misses += 1
                    with tracer.span("simulate", job_id):
                        result = get_backend(mode)(config).run()
                    with tracer.span("transfer", job_id):
                        blob = pickle.dumps(result)
                        result = pickle.loads(blob)
                    transfer_bytes.append(len(blob))
                    with tracer.span("cache_store", job_id):
                        cache.store(config, mode, result)
                results.append(result)
            path = results_dir / f"{job_id}.npz"
            with tracer.span("npz_encode", job_id):
                save_result_npz(path, results)
            result_bytes += path.stat().st_size
            record = JobRecord(job_id=job_id, spec=spec, status="done", mode=mode,
                               total_points=len(configs), points_completed=len(configs),
                               simulated=misses, cache_hits=len(configs) - misses,
                               result_file=path.name)
            with tracer.span("jobstore_save", job_id):
                store.save(record)
        points.append(len(configs))
        simulated.append(misses)
        batch_means_s.extend(
            _timed(lambda r=r: batch_means_interval(
                r.job_times, r.config.num_batches, r.config.confidence), 1)
            for r in results if isinstance(r, SimulationResult)
        )
    cache_files = list((root / "cache").glob("*.npz"))
    return {
        "store": store,
        "points": points,
        "simulated": simulated,
        "transfer_bytes": transfer_bytes,
        "hit_loads": hit_loads,
        "result_bytes": result_bytes,
        "cache_bytes": sum(p.stat().st_size for p in cache_files) / len(cache_files),
        "batch_means_s": batch_means_s,
    }


def _import_seconds(module: str) -> float:
    env_src = str(REPO / "src")
    command = [sys.executable, "-c", f"import sys; sys.path.insert(0, {env_src!r}); import {module}"]
    return _timed(lambda: subprocess.run(command, check=True, timeout=60), 3)


def probes() -> dict[str, float]:
    """Per-layer costs measured on fixed inputs, outside the replay."""
    from repro.backends import get_backend
    from repro.desim import ExponentialVariate, StreamRegistry
    from repro.engine import grid_mode, parallel_map
    from repro.service import SweepJobSpec

    metrics = {
        "cli.import_s": _import_seconds("repro.cli"),
        "stats.import_s": _import_seconds("repro.stats"),
        "engine.pool_spinup_ms": 1e3 * _timed(lambda: parallel_map(abs, [1, 2], jobs=nproc()), 5),
    }
    for job in EVENT_GRIDS:
        configs, _ = SweepJobSpec.from_json(job).resolve()
        configs = configs[:PROBE_POINTS]
        oracle = get_backend(grid_mode(job["grid"]))
        seconds = _timed(lambda: [oracle(c).run() for c in configs], 1)
        metrics[f"oracle.ms_per_point.{job['grid']}"] = 1e3 * seconds / len(configs)
        kernel = get_backend("event-kernel")
        seconds = _timed(lambda: kernel.run_batch(configs), 1)
        metrics[f"kernel.ms_per_point.{job['grid']}"] = 1e3 * seconds / len(configs)
    configs, _ = SweepJobSpec.from_json(FIGURE_GRIDS[0]).resolve()
    sampler = get_backend("monte-carlo")
    seconds = _timed(lambda: [sampler(c).run() for c in configs], 3)
    metrics["montecarlo.ms_per_point"] = 1e3 * seconds / len(configs)

    stream = StreamRegistry(0).stream("perfbench")
    variate = ExponentialVariate(1.0)
    draws = 20_000
    seconds = _timed(lambda: [variate.sample(stream) for _ in range(draws)], 3)
    metrics["rng.scalar_ns_per_draw"] = 1e9 * seconds / draws
    draws = 1_000_000
    seconds = _timed(lambda: variate.sample_batch(stream, draws), 3)
    metrics["rng.batch_ns_per_draw"] = 1e9 * seconds / draws

    return metrics


def measure(workload: str, seed: int, run_dir: Path, out_dir: Path) -> tuple[dict[str, float], dict[str, Any]]:
    """Per-layer metrics by name, and the run record."""
    jobs = session_jobs(workload, seed)
    run_dir.mkdir(exist_ok=True)
    started = time.perf_counter()
    live = live_session(jobs, run_dir)

    tracer = Tracer()
    root = Path(tempfile.mkdtemp(prefix="replay-", dir=run_dir))
    try:
        replayed = replay(jobs, root, tracer)
        pending_s = _timed(replayed["store"].pending, 5)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"{workload}-seed{seed}.perfetto.json"
    tracer.write_chrome(trace_file)

    totals = dict.fromkeys(("job", *REPLAY_LAYERS), 0.0)
    counts = dict.fromkeys(totals, 0)
    per_job: dict[str, dict[str, float]] = {}
    for (name, _, _, _, job_id), seconds in zip(tracer.spans, tracer.self_times()):
        totals[name] += seconds
        counts[name] += 1
        layers = per_job.setdefault(job_id, {})
        layers[name] = layers.get(name, 0.0) + seconds
    replay_total = sum(totals.values())

    # Wall time the spans account for: serial layers as measured, pooled
    # layers spread over as many workers as the job had missed points.
    accounted = 0.0
    for layers, misses in zip(per_job.values(), replayed["simulated"]):
        width = max(1, min(nproc(), misses))
        accounted += sum(v / width if k in POOLED else v for k, v in layers.items())
    untraced_total = sum(live["latencies"])
    points = sum(replayed["points"])
    simulated = sum(replayed["simulated"])

    metrics = {
        "service.http_rtt_ms": live["http_rtt_ms"],
        "service.keepalive_rtt_ms": live["keepalive_rtt_ms"],
        "service.submit_ms": live["submit_ms"],
        "service.spec_resolve_ms": 1e3 * totals["spec_resolve"] / counts["spec_resolve"],
        "service.jobstore_pending_ms": 1e3 * pending_s,
        "service.jobstore_save_ms": 1e3 * totals["jobstore_save"] / counts["jobstore_save"],
        "service.npz_encode_ms_per_point": 1e3 * totals["npz_encode"] / points,
        "service.result_bytes_per_point": replayed["result_bytes"] / points,
        "engine.fingerprint_us": 1e6 * totals["fingerprint"] / counts["fingerprint"],
        "engine.transfer_ms_per_point": 1e3 * totals["transfer"] / simulated,
        "engine.transfer_bytes_per_point": _mean(replayed["transfer_bytes"]),
        "cache.store_ms_per_point": 1e3 * totals["cache_store"] / simulated,
        "cache.load_ms_per_point": 1e3 * _mean(replayed["hit_loads"]),
        "cache.bytes_per_point": replayed["cache_bytes"],
        "cache.hit_ratio": live["hit_ratio"],
        "stats.batch_means_us": 1e6 * statistics.median(replayed["batch_means_s"]),
        **probes(),
    }
    for name in REPLAY_LAYERS:
        metrics[f"share.{name}"] = totals[name] / replay_total
    metrics["share.job_other"] = totals["job"] / replay_total
    metrics["trace.untraced_job_ms"] = 1e3 * untraced_total / len(jobs)
    metrics["trace.accounted_job_ms"] = 1e3 * accounted / len(jobs)
    metrics["trace.unaccounted_ms_per_job"] = 1e3 * (untraced_total - accounted) / len(jobs)
    metrics["trace.unaccounted_share"] = (untraced_total - accounted) / untraced_total

    record = {
        "attempted": len(jobs),
        "failed": live["failed"],
        "jobs_per_session": len(jobs),
        "points_per_session": points,
        "measured_s": time.perf_counter() - started,
        "trace_file": str(trace_file.relative_to(REPO)),
        "replay_job_ms": 1e3 * replay_total / len(jobs),
    }
    return metrics, record
