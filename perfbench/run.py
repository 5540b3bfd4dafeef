"""The repository benchmark: sweep-service round trips on three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run repeats *sessions* until ``--seconds`` are used
up.  A session spawns ``repro.cli serve`` (``--jobs`` = CPU count) on a
fresh root and port, plays the workload's job list through one closed-loop
client, records the service's peak RSS and disk use, kills the service and
checks every returned point against ``digests.json``.  The last stdout line
is the JSON result with every end-to-end metric.

With ``--trace 1`` it runs ``trace.py`` instead: per-layer metrics from a
span-traced in-process replay of the same inputs (see that module).

Every run also writes a record with its provenance to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

from digests import load_reference, payload_digests  # noqa: E402
from serve import JobTiming, ServeProcess, nproc  # noqa: E402
from workloads import WORKLOADS, job_key, session_jobs  # noqa: E402

#: Set-up-only spawns at the start of a run.  They warm the page cache and
#: add to the sessions' spawns, so ``setup_s`` is a median of several.
SETUP_SPAWNS = 3
RUN_DIR = REPO / ".bench_run"
OUT_DIR = REPO / ".bench_out"


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def provenance(workload: str, seed: int) -> dict[str, Any]:
    """What ran where: CPUs, versions, commit and a digest of the sources."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    for path in sorted((REPO / "src").rglob("*.py")):
        source.update(str(path.relative_to(REPO)).encode())
        source.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "source_sha256": source.hexdigest()[:16],
    }


def host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the host ran.

    Recorded, not reported as a metric: on a shared host, single-thread
    speed can drift by tens of percent between runs, and this tells such a
    drift apart from a change in the program.
    """
    def loop() -> None:
        total = 0
        for i in range(200_000):
            total += i * i

    return 1e3 * statistics.median(timeit.repeat(loop, number=1, repeat=5))


def check_repo() -> None:
    if not (REPO / "src" / "repro" / "cli.py").is_file():
        raise SystemExit(f"no repro sources under {REPO / 'src'}; run from a repository checkout")
    compileall.compile_dir(str(REPO / "src"), quiet=2)


def run_session(jobs: list[dict[str, Any]], reference: dict[str, list[str]]) -> dict[str, Any]:
    """One fresh service: play the job list, measure, stop, check results."""
    RUN_DIR.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="serve-", dir=RUN_DIR))
    try:
        with ServeProcess(REPO, root, nproc()) as serve:
            timings = [serve.run_job(job) for job in jobs]
            peak_rss_mb = serve.peak_rss_mb()
            disk_mb = serve.disk_mb()
            setup_s = serve.setup_s
    finally:
        shutil.rmtree(root, ignore_errors=True)
    mismatches = sum(
        1 for t in timings
        if t.ok and payload_digests(t.payload) != reference.get(job_key(t.job))
    )
    for t in timings:
        t.payload = b""
    return {
        "setup_s": setup_s,
        "timings": timings,
        "failed": sum(1 for t in timings if not t.ok) + mismatches,
        "mismatches": mismatches,
        "peak_rss_mb": peak_rss_mb,
        "disk_mb": disk_mb,
    }


def spawn_only() -> float:
    """Set-up time of a service that is stopped as soon as it answers."""
    RUN_DIR.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="serve-", dir=RUN_DIR))
    try:
        with ServeProcess(REPO, root, nproc()) as serve:
            return serve.setup_s
    finally:
        shutil.rmtree(root, ignore_errors=True)


def end_to_end(sessions: list[dict[str, Any]], setups: list[float]) -> dict[str, float]:
    timings: list[JobTiming] = [t for s in sessions for t in s["timings"] if t.ok]
    cold = [t for t in timings if t.record["simulated"] > 0]
    warm = [t for t in timings if t.record["simulated"] == 0]
    latencies = [t.latency_s for t in timings]
    return {
        "setup_s": statistics.median(setups),
        "cold_points_per_s": sum(t.record["simulated"] for t in cold) / sum(t.latency_s for t in cold),
        "warm_points_per_s": sum(t.record["cache_hits"] for t in warm) / sum(t.latency_s for t in warm),
        "job_s_p50": percentile(latencies, 0.50),
        "job_s_p95": percentile(latencies, 0.95),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sessions),
        "disk_mb": statistics.median(s["disk_mb"] for s in sessions),
    }


def latency_growth(sessions: list[dict[str, Any]]) -> dict[str, float]:
    """Median latency of cache-hit jobs in each quarter of a session."""
    quarters: list[list[float]] = [[], [], [], []]
    for session in sessions:
        timings = session["timings"]
        for index, t in enumerate(timings):
            if t.ok and t.record["simulated"] == 0:
                quarters[4 * index // len(timings)].append(t.latency_s)
    return {f"q{i + 1}": statistics.median(q) for i, q in enumerate(quarters) if q}


def measure(workload: str, seed: int, seconds: float) -> tuple[dict[str, float], dict[str, Any]]:
    """End-to-end metrics by name, and the run record."""
    jobs = session_jobs(workload, seed)
    reference = load_reference()
    setups = [spawn_only() for _ in range(SETUP_SPAWNS)]
    sessions: list[dict[str, Any]] = []
    durations: list[float] = []
    started = time.perf_counter()
    # Start another session while it should end within half a session of
    # the deadline, so runs of every workload take about ``seconds``.
    while True:
        session_started = time.perf_counter()
        sessions.append(run_session(jobs, reference))
        durations.append(time.perf_counter() - session_started)
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(durations) / 2 > seconds:
            break
    setups += [s["setup_s"] for s in sessions]
    attempted = sum(len(s["timings"]) for s in sessions)
    failed = sum(s["failed"] for s in sessions)
    record = {
        "attempted": attempted,
        "failed": failed,
        "sessions": len(sessions),
        "jobs_per_session": len(jobs),
        "points_per_session": sum(t.record.get("total_points", 0) for t in sessions[0]["timings"]),
        "measured_s": time.perf_counter() - started,
        "failed_ratio": failed / attempted,
        "mismatches": sum(s["mismatches"] for s in sessions),
        "errors": sorted({t.error for s in sessions for t in s["timings"] if t.error})[:5],
        "warm_job_s_p50_by_session_quarter": latency_growth(sessions),
        "setup_s_samples": setups,
    }
    return end_to_end(sessions, setups), record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds through the ``with`` blocks that kill serve.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    check_repo()
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    host_before = host_loop_ms()
    if args.trace:
        import layers

        metrics, record = layers.measure(args.workload, args.seed, RUN_DIR, OUT_DIR)
    else:
        metrics, record = measure(args.workload, args.seed, args.seconds)
    record["host_loop_ms"] = [host_before, host_loop_ms()]
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"provenance": provenance(args.workload, args.seed), **record, "result": result}
    try:
        RUN_DIR.rmdir()
    except OSError:
        pass
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({k: v for k, v in record.items() if k != "result"}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
