"""End-to-end tests for the sweep service, its HTTP API and the CLI.

The two contracts the service must never break are pinned here:

* **Bitwise**: a grid submitted over the API produces an NPZ payload equal
  *byte for byte* to serializing a library ``SweepRunner.run`` of the same
  grid — seeds derive from grid coordinates, never from service state.
* **Warm cache**: resubmitting the same grid completes with zero simulated
  points — every point a hit on the shared result cache.
"""

from __future__ import annotations

import builtins
import contextlib
import hashlib
import http.client
import http.server
import io
import json
import os
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.backends import SimulationConfig
from repro.cli import main
from repro.core import ScenarioSpec
from repro.engine import SweepRunner, build_grid, grid_mode
from repro.obs import REGISTRY
from repro.service import (
    JobRecord,
    JobStore,
    ServiceClient,
    ServiceError,
    SweepJobSpec,
    SweepService,
    config_to_json,
    load_result_arrays,
    make_server,
    save_result_npz,
)
from repro.workload import OwnerActivityTrace

#: A grid small enough for the suite, wide enough to shard (4 points).
GRID = "fig01"
OVERRIDES = {
    "workstation_counts": [2, 5],
    "utilizations": [0.05, 0.10],
    "num_jobs": 80,
    "num_batches": 4,
}
#: One point: a job of one shard.
ONE_POINT = {
    "workstation_counts": [2],
    "utilizations": [0.05],
    "num_jobs": 40,
    "num_batches": 4,
}


def _trace_owner_points() -> list[SimulationConfig]:
    traces = [
        OwnerActivityTrace(horizon=400.0, busy_intervals=((10.0, 22.5), (150.0, 161.0))),
        OwnerActivityTrace(horizon=400.0, busy_intervals=((60.0, 75.0),)),
    ]
    scenario = ScenarioSpec.from_traces(traces)
    return [
        SimulationConfig.from_scenario(
            scenario, task_demand=40.0, num_jobs=40, num_batches=4, seed=seed
        )
        for seed in (11, 12)
    ]


#: Raw-point batches covering the wire codec's branches: homogeneous closed
#: points, space-shared open points with job classes, and trace-replaying
#: owners.
POINT_BATCHES = {
    "fig01": lambda: (
        build_grid("fig01", num_jobs=40, workstation_counts=(2,))[:2],
        grid_mode("fig01"),
    ),
    "admission-sweep": lambda: (
        build_grid("admission-sweep", num_jobs=40)[:2],
        grid_mode("admission-sweep"),
    ),
    "trace-owner": lambda: (_trace_owner_points(), "event-driven"),
}

_POINT = config_to_json(build_grid(GRID, num_jobs=40)[0])


def _open_point_with(*path, **updates) -> dict:
    """The first admission-sweep point on the wire, with the object at
    ``path`` updated."""
    point = config_to_json(build_grid("admission-sweep", num_jobs=40)[0])
    node = point
    for step in path:
        node = node[step]
    node.update(updates)
    return point


_OPEN_POINT_WIDTH_2_9 = _open_point_with(
    "scenario", "arrivals", "job_classes", 0, width=2.9
)


#: The mode a job of each executor runs the grid's points on.
EXECUTOR_MODES = {"sweep": grid_mode(GRID), "vectorized": "monte-carlo-max"}


def library_payload_bytes(tmp_path, overrides=OVERRIDES, executor="sweep"):
    """What SweepRunner.run of the same grid serializes to."""
    overrides = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in overrides.items()
    }
    outcome = SweepRunner(jobs=1).run(
        build_grid(GRID, **overrides), mode=EXECUTOR_MODES[executor]
    )
    return save_result_npz(tmp_path / "library.npz", outcome.results).read_bytes()


def payload_points() -> dict[str, float]:
    counter = REGISTRY.get("repro_payload_points_total")
    return {
        source: counter.labels(source=source).value
        for source in ("entry", "encoded")
    }


@pytest.fixture(autouse=True)
def _two_point_shards(monkeypatch):
    """Shard every job in two-point shards, so a 4-point grid spans two."""
    monkeypatch.setattr("repro.service.service.SHARD_SIZE", 2)


@pytest.fixture
def service(tmp_path):
    instance = SweepService(tmp_path / "service", jobs=1)
    yield instance
    instance.stop(timeout=10.0)


@pytest.fixture
def live(service):
    """The service worker plus its HTTP server on an ephemeral port."""
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    service.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    yield service, client
    server.shutdown()
    server.server_close()


class TestServiceCore:
    def test_submit_validates_synchronously(self, service):
        with pytest.raises(KeyError):
            service.submit_grid("not-a-grid")
        with pytest.raises(ValueError):
            service.submit(SweepJobSpec.for_grid(GRID, {"num_jobs": 10}, "warp"))
        assert len(service.store) == 0  # no doomed job was minted

    def test_failed_job_records_the_error(self, service, monkeypatch):
        record = service.submit_grid(GRID, OVERRIDES)

        def explode(*args, **kwargs):
            raise RuntimeError("shard executor blew up")

        monkeypatch.setattr(service.runner, "run", explode)
        eta = REGISTRY.get("repro_job_eta_seconds")
        eta.set(5.0)  # as an earlier shard would have left it
        service.run_pending()
        failed = service.status(record.job_id)
        assert failed is not None
        assert failed.status == "failed"
        assert failed.error is not None
        assert "shard executor blew up" in failed.error
        assert eta.value == 0.0

    def test_restart_resumes_interrupted_work(self, tmp_path):
        root = tmp_path / "service"
        first = SweepService(root, jobs=1)
        record = first.submit_grid(GRID, OVERRIDES)
        # Simulate a crash mid-job: the record persisted as running, the
        # process died before finishing.
        record.status = "running"
        record.points_completed = 2
        first.store.save(record)
        first.close()

        second = SweepService(root, jobs=1)
        assert [r.job_id for r in second.recovered] == [record.job_id]
        assert second.run_pending() == 1
        finished = second.status(record.job_id)
        assert finished is not None
        assert finished.status == "done"
        assert finished.note == "recovered after restart"
        assert finished.points_completed == finished.total_points == 4
        second.stop()

    @pytest.mark.parametrize("executor", sorted(EXECUTOR_MODES))
    def test_killed_job_resumes_from_its_finished_shards(
        self, tmp_path, monkeypatch, executor
    ):
        class Killed(BaseException):
            """Escapes the worker's ``except Exception``, as a kill would."""

        root = tmp_path / "service"
        first = SweepService(root, jobs=1)
        record = first.submit_grid(GRID, OVERRIDES, executor)
        run = first.runner.run
        calls = []

        def killed_on_the_second_shard(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise Killed
            return run(*args, **kwargs)

        monkeypatch.setattr(first.runner, "run", killed_on_the_second_shard)
        with pytest.raises(Killed):
            first.run_pending()
        interrupted = first.status(record.job_id)
        assert interrupted is not None and interrupted.status == "running"
        assert interrupted.shards_completed == 1
        assert interrupted.points_completed == 2

        # The restart replays the finished shard from the cache and
        # simulates only the one that was cut.
        first.close()
        second = SweepService(root, jobs=1)
        assert [r.job_id for r in second.recovered] == [record.job_id]
        assert second.run_pending() == 1
        finished = second.status(record.job_id)
        assert finished is not None and finished.status == "done"
        assert finished.simulated == 2 and finished.cache_hits == 2
        assert finished.points_completed == 4
        payload = second.result_path(record.job_id)
        assert payload is not None
        assert payload.read_bytes() == library_payload_bytes(
            tmp_path, executor=executor
        )
        second.stop()


    def test_queue_depth_is_not_left_stale_by_a_racing_submit(
        self, service, monkeypatch
    ):
        # The worker takes the job just after submit counted the queue; the
        # count submit publishes must not land after the worker's own.
        count_pending = service.store.pending
        worker = threading.Thread(target=service.process_once)

        def count_then_race():
            counted = count_pending()
            if worker.ident is None:  # race on submit's count only
                worker.start()
                worker.join(timeout=0.5)
            return counted

        monkeypatch.setattr(service.store, "pending", count_then_race)
        service.submit_grid(GRID, OVERRIDES)
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert REGISTRY.get("repro_service_queue_depth").value == 0

    def test_truncated_record_is_quarantined_and_the_service_starts(
        self, tmp_path
    ):
        root = tmp_path / "service"
        first = SweepService(root, jobs=1)
        interrupted, kept, truncated = (
            first.submit_grid(GRID, dict(OVERRIDES, num_jobs=num_jobs))
            for num_jobs in (40, 60, 80)
        )
        interrupted.status = "running"
        first.store.save(interrupted)
        record_file = root / "jobs" / f"{truncated.job_id}.json"
        record_file.write_bytes(record_file.read_bytes()[:50])
        corrupt = REGISTRY.get("repro_service_corrupt_records_total")
        before = corrupt.value
        first.close()

        second = SweepService(root, jobs=1)
        assert [r.job_id for r in second.recovered] == [interrupted.job_id]
        assert [r.job_id for r in second.list_jobs()] == [
            interrupted.job_id,
            kept.job_id,
        ]
        assert not record_file.exists()
        assert record_file.with_name(record_file.name + ".corrupt").exists()
        assert corrupt.value - before == 1
        assert second.status(truncated.job_id) is None
        resubmitted = second.submit_grid(GRID, OVERRIDES)
        assert resubmitted.job_id.split("-")[1] == "000004"
        second.stop()


class TestHTTPEndToEnd:
    def test_bitwise_pin_and_warm_cache_replay(self, live, tmp_path):
        service, client = live

        first = client.submit_grid(GRID, OVERRIDES)
        assert first.status == "queued"
        assert first.total_points == 4
        assert first.shards_total == 2
        first = client.wait(first.job_id)
        assert first.status == "done"
        assert first.simulated == 4
        assert first.cache_hits == 0
        assert first.points_completed == 4

        # The end-to-end pin: the payload served over HTTP equals, byte for
        # byte, what a library run of the same grid serializes to.
        assert client.result_bytes(first.job_id) == library_payload_bytes(tmp_path)

        # Resubmission replays entirely from the shared warm cache.
        second = client.submit_grid(GRID, OVERRIDES)
        assert second.job_id != first.job_id
        second = client.wait(second.job_id)
        assert second.status == "done"
        assert second.simulated == 0
        assert second.cache_hits == second.total_points == 4
        assert client.result_bytes(second.job_id) == client.result_bytes(
            first.job_id
        )

    def test_vectorized_job_is_not_served_the_per_point_entries(
        self, live, tmp_path
    ):
        # The per-point job leaves monte-carlo cache entries for the same
        # configs; the vectorized job runs monte-carlo-max, whose entries
        # are its own, so it simulates its points and caches them.
        _, client = live
        overrides = dict(OVERRIDES, workstation_counts=[2])
        before = payload_points()
        per_point = client.wait(client.submit_grid(GRID, overrides).job_id)
        sampled = client.wait(
            client.submit_grid(GRID, overrides, executor="vectorized").job_id
        )
        assert per_point.status == sampled.status == "done"
        assert per_point.simulated == sampled.simulated == 2
        assert (per_point.mode, sampled.mode) == ("monte-carlo", "monte-carlo-max")
        after = payload_points()
        assert after["entry"] - before["entry"] == 4
        assert after["encoded"] - before["encoded"] == 0
        served = client.result_bytes(sampled.job_id)
        assert served == library_payload_bytes(tmp_path, overrides, "vectorized")
        assert served != client.result_bytes(per_point.job_id)

    def test_vectorized_job_equals_the_library_across_shards(self, live, tmp_path):
        # Each point draws from its own config's stream, so a vectorized job
        # runs in shards like any other, and its resubmission replays them.
        _, client = live
        record = client.wait(
            client.submit_grid(GRID, OVERRIDES, executor="vectorized").job_id
        )
        assert record.status == "done"
        served = client.result_bytes(record.job_id)
        assert served == library_payload_bytes(tmp_path, OVERRIDES, "vectorized")
        assert record.shards_total == record.shards_completed == 2
        again = client.wait(
            client.submit_grid(GRID, OVERRIDES, executor="vectorized").job_id
        )
        assert again.simulated == 0 and again.cache_hits == 4
        assert client.result_bytes(again.job_id) == served

    @pytest.mark.parametrize("batch", sorted(POINT_BATCHES))
    def test_points_submission_round_trip(self, live, tmp_path, batch):
        _, client = live
        points, mode = POINT_BATCHES[batch]()
        record = client.wait(client.submit_points(points, mode=mode).job_id)
        assert record.status == "done"
        arrays = client.result_arrays(record.job_id)
        lone = SweepRunner(jobs=1).run(points, mode=mode)
        expected = load_result_arrays(
            save_result_npz(tmp_path / "library.npz", lone.results)
        )
        assert sorted(arrays) == sorted(expected)
        for key, value in expected.items():
            np.testing.assert_array_equal(arrays[key], value)

    @pytest.mark.parametrize(
        "payload",
        [
            {"points": [dict(_POINT, num_job=50)], "mode": "monte-carlo"},
            {"grid": GRID, "overides": {"num_jobs": 50}},
            {"points": [dict(_POINT, num_jobs=400.9)], "mode": "monte-carlo"},
            {"points": [_OPEN_POINT_WIDTH_2_9], "mode": "open-system"},
            {
                "points": [
                    dict(
                        _POINT,
                        owner={
                            "demand": 10,
                            "utilization": 0.5,
                            "request_probability": 0.001,
                        },
                    )
                ],
                "mode": "monte-carlo",
            },
            {
                "points": [
                    _open_point_with(
                        "scenario", "stations", 0,
                        demand_kind="hyperexponential",
                        demand_kwargs=[["squared_cv", 1.0]],
                    )
                ],
                "mode": "open-system",
            },
            {
                "points": [
                    _open_point_with(
                        "scenario", "arrivals", "job_classes", 1,
                        population=1, think_time=0.0,
                    )
                ],
                "mode": "open-system",
            },
            {
                "points": [
                    _open_point_with("scenario", "stations", 0, demand_kind="gamma")
                ],
                "mode": "open-system",
            },
            {
                "points": [_open_point_with("scenario", "arrivals", demand_kind="gamma")],
                "mode": "open-system",
            },
            {
                "points": [dict(_POINT, owner_demand_kind="gamma")],
                "mode": "monte-carlo",
            },
            {
                "points": [_open_point_with("scenario", policy="bogus")],
                "mode": "open-system",
            },
            {
                "points": [
                    _open_point_with(
                        "scenario", "arrivals", admission_policy="lottery"
                    )
                ],
                "mode": "open-system",
            },
            {
                "points": [
                    _open_point_with(
                        "scenario",
                        policy="self-scheduling",
                        policy_kwargs=[["bogus_kw", 1.0]],
                    )
                ],
                "mode": "open-system",
            },
            {
                "grid": "fig01",
                "overrides": {
                    "workstation_counts": list(range(1, 401)),
                    "utilizations": [i / 1000 for i in range(1, 301)],
                },
            },
            {"grid": "fig01", "overrides": {"num_jobs": 100.9}},
            {"grid": "fig01", "overrides": {"workstation_counts": [2.9]}},
            {"grid": "fig01", "overrides": {"workstation_counts": [True]}},
            {
                "grid": "admission-sweep",
                "overrides": {"job_widths": [2.5], "num_jobs": 40},
            },
            {"grid": "fig01", "overrides": {"num_batches": 4.5}},
            {"grid": "fig01", "overrides": {"seed": True}},
            {"grid": "fig01", "overrides": {"confidence": 2.0}},
            {"points": [dict(_POINT, confidence=2.0)], "mode": "monte-carlo"},
            {
                "grid": "fig01",
                "overrides": {
                    "num_jobs": 10**12,
                    "workstation_counts": [100],
                    "utilizations": [0.1],
                },
            },
            {"grid": "arrival-sweep", "overrides": {"num_jobs": 10**12}},
            {
                "points": [dict(_POINT, num_jobs=10**9, workstations=100)],
                "mode": "monte-carlo",
            },
        ],
        ids=[
            "point-key-typo",
            "spec-key-typo",
            "fractional-num-jobs",
            "fractional-width",
            "inconsistent-owner",
            "hyperexponential-cv-1",
            "zero-exponential-think-time",
            "unknown-station-kind",
            "unknown-arrival-demand-kind",
            "unknown-owner-demand-kind",
            "unknown-scheduling-policy",
            "unknown-admission-policy",
            "unknown-policy-keyword",
            "grid-over-point-cap",
            "fractional-num-jobs-override",
            "fractional-workstation-count",
            "boolean-workstation-count",
            "fractional-job-width",
            "fractional-num-batches",
            "boolean-seed",
            "confidence-override-above-1",
            "point-confidence-above-1",
            "grid-num-jobs-over-task-cap",
            "open-grid-num-jobs-over-task-cap",
            "point-num-jobs-over-task-cap",
        ],
    )
    def test_malformed_submission_is_refused(self, live, payload):
        # None may be reinterpreted: an ignored typo runs the defaults, a
        # truncated int or a boolean runs another point (in a raw point or
        # a grid override alike), a confidence outside (0, 1) fails only
        # when the interval is formed, and a U/P pair that disagrees
        # under Eq. 8 is simulated at one value and reported at the other.
        # Nor may a distribution or policy every backend refuses become a
        # job that fails once it runs, nor a 120 000-point grid be queued,
        # nor a point whose num_jobs x W task times no worker could hold.
        service, client = live
        with pytest.raises(ServiceError) as refused:
            client._request_json("/jobs", payload)
        assert refused.value.status == 400
        assert len(service.store) == 0

    def test_health_and_job_listing(self, live):
        _, client = live
        health = client.health()
        assert health["status"] == "ok"
        record = client.wait(
            client.submit_grid(GRID, dict(OVERRIDES, num_jobs=40)).job_id
        )
        assert record.job_id in [r.job_id for r in client.jobs()]
        assert client.health() == {"status": "ok", "jobs": 1, "queued": 0}

    def test_error_answers(self, live):
        _, client = live
        with pytest.raises(ServiceError) as bad_grid:
            client.submit_grid("not-a-grid")
        assert bad_grid.value.status == 400
        assert "not-a-grid" in bad_grid.value.message

        with pytest.raises(ServiceError) as unknown:
            client.status("job-999999-deadbeef")
        assert unknown.value.status == 404

        with pytest.raises(ServiceError) as no_route:
            client._request_json("/nonsense")
        assert no_route.value.status == 404

    @staticmethod
    def _post_headers_only(client, content_length: str) -> bytes:
        """Send ``POST /jobs`` headers with no body; the server's answer."""
        port = int(client.base_url.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
            sock.sendall(
                b"POST /jobs HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                b"Content-Length: " + content_length.encode() + b"\r\n\r\n"
            )
            answer = b""
            while chunk := sock.recv(4096):  # the server closes after answering
                answer += chunk
        return answer

    def test_negative_content_length_is_refused_unread(self, live):
        # rfile.read(-1) reads to EOF: the handler used to block until the
        # client hung up, then submit whatever body had arrived by then
        service, client = live
        answer = self._post_headers_only(client, "-1")
        assert answer.startswith(b"HTTP/1.1 400 ")
        assert b"Content-Length must be a non-negative integer" in answer
        assert len(service.store) == 0
        assert client.health()["status"] == "ok"

    def test_oversized_content_length_is_refused_unread(self, live):
        # rfile.read(1 TiB) would raise MemoryError before any answer
        service, client = live
        answer = self._post_headers_only(client, str(2**40))
        assert answer.startswith(b"HTTP/1.1 413 ")
        assert b"exceeds the" in answer
        assert len(service.store) == 0
        assert client.health()["status"] == "ok"

    def test_kept_alive_requests_answer_without_delayed_ack(self, live):
        # Headers and body are two writes; under Nagle's algorithm the body
        # of every request after the first waited for the client's delayed
        # ACK, about 40 ms.
        _, client = live
        connection = http.client.HTTPConnection(
            client.base_url.removeprefix("http://"), timeout=5.0
        )
        seconds = []
        try:
            for _ in range(20):
                started = time.perf_counter()
                connection.request("GET", "/health")
                response = connection.getresponse()
                assert json.loads(response.read())["status"] == "ok"
                seconds.append(time.perf_counter() - started)
        finally:
            connection.close()
        assert statistics.median(seconds) < 0.020, seconds

    def test_result_before_done_is_a_conflict(self, service):
        # Server up, but the worker thread deliberately not started: the
        # job stays queued, so its result must answer 409, not bytes.
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{server.server_address[1]}"
            )
            record = client.submit_grid(GRID, OVERRIDES)
            with pytest.raises(ServiceError) as conflict:
                client.result_bytes(record.job_id)
            assert conflict.value.status == 409
            assert "queued" in conflict.value.message
        finally:
            server.shutdown()
            server.server_close()


#: Takes a root, leaves a job ``running`` and forks a process that outlives
#: it, as a pool worker of a killed service would; prints the job id and the
#: forked process's pid once that process runs, then waits to be killed.
#: ``start()`` returns before the child has run its after-fork hooks, which
#: close its copy of the root lock; the child's target runs after them, so
#: its word over the pipe means the copy is closed.
_HOLD_ROOT = """
import multiprocessing, sys, time
from repro.service import SweepService

def report_then_sleep(running):
    running.send(True)
    time.sleep(120)

service = SweepService(sys.argv[1], jobs=1)
record = service.submit_grid("fig01", {"workstation_counts": [2], "num_jobs": 40})
record.status = "running"
service.store.save(record)
fork = multiprocessing.get_context("fork")
running, report = fork.Pipe(duplex=False)
worker = fork.Process(target=report_then_sleep, args=(report,))
worker.start()
running.recv()
print(record.job_id, worker.pid, flush=True)
sys.stdin.read()
"""


class TestRootLock:
    def test_a_held_root_is_refused_until_it_is_closed(self, tmp_path, capsys):
        root = tmp_path / "service"
        first = SweepService(root, jobs=1)
        with pytest.raises(OSError, match="in use") as refused:
            SweepService(root, jobs=1)
        assert str(root) in str(refused.value)
        assert main(["serve", "--root", str(root), "--port", "0", "--quiet"]) == 2
        assert str(root) in capsys.readouterr().err
        first.close()
        SweepService(root, jobs=1).close()

    def test_a_killed_holder_leaves_no_stale_lock(self, tmp_path):
        # The kernel drops a flock with the last descriptor of its open
        # file, so SIGKILL of the holder frees the root, although a process
        # it forked lives on; the holder's running job is then re-queued.
        root = tmp_path / "service"
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [sys.executable, "-c", _HOLD_ROOT, str(root)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        forked = None
        try:
            job_id, forked = child.stdout.readline().split()
            assert job_id.startswith("job-000001-"), job_id
            with pytest.raises(OSError, match="in use"):
                SweepService(root, jobs=1)
            child.kill()
            child.wait(timeout=30)
            assert child.returncode == -signal.SIGKILL
            os.kill(int(forked), 0)  # still alive
            service = SweepService(root, jobs=1)
            try:
                assert [r.job_id for r in service.recovered] == [job_id]
                requeued = service.status(job_id)
                assert requeued is not None and requeued.status == "queued"
            finally:
                service.close()
        finally:
            child.kill()
            child.wait(timeout=30)
            child.stdin.close()
            child.stdout.close()
            if forked is not None:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(int(forked), signal.SIGKILL)

    def test_close_holds_the_root_until_the_running_job_ends(
        self, tmp_path, monkeypatch
    ):
        # A job that outlasts stop()'s timeout keeps the root held, through
        # stop() and through close() until the job ends: no second service
        # can re-queue and rerun it while the first still saves it.
        root = tmp_path / "service"
        first = SweepService(root, jobs=1)
        started, release = threading.Event(), threading.Event()
        run = first.runner.run

        def blocking_run(*args, **kwargs):
            started.set()
            assert release.wait(timeout=60)
            return run(*args, **kwargs)

        monkeypatch.setattr(first.runner, "run", blocking_run)
        # stop()'s default wait, cut so that the job outlasts it
        monkeypatch.setattr(SweepService.stop, "__defaults__", (0.1,))
        record = first.submit_grid(GRID, ONE_POINT)
        first.start()
        closing = threading.Thread(target=first.close)
        try:
            assert started.wait(timeout=30)
            first.stop()
            with pytest.raises(OSError, match="in use"):
                SweepService(root, jobs=1)
            closing.start()
            closing.join(timeout=0.5)
            assert closing.is_alive()  # close() waits for the job
            with pytest.raises(OSError, match="in use"):
                SweepService(root, jobs=1)
        finally:
            release.set()
            if closing.is_alive():
                closing.join(timeout=60)
        assert not closing.is_alive()
        second = SweepService(root, jobs=1)
        try:
            assert second.recovered == []
            assert second.status(record.job_id).status == "done"
        finally:
            second.close()

    def test_temp_files_of_killed_writers_are_removed_at_start(self, tmp_path):
        root = tmp_path / "service"
        first = SweepService(root, jobs=1)
        record = first.submit_grid(GRID, ONE_POINT)
        assert first.run_pending() == 1
        first.close()

        def files():
            return {
                path: path.read_bytes()
                for directory in ("jobs", "results")
                for path in (root / directory).iterdir()
            }

        kept = files()
        planted = [
            root / "jobs" / f"{record.job_id}x7k2q9.tmp",
            root / "results" / f"{record.job_id}p3m8w1.tmp",
        ]
        for path in planted:
            path.write_bytes(b"half of a write")
        SweepService(root, jobs=1).close()
        assert not any(path.exists() for path in planted)
        assert files() == kept


class TestJobIndex:
    @pytest.mark.parametrize("prior", [1, 60])
    def test_no_request_reads_a_record_file(self, tmp_path, monkeypatch, prior):
        # Counted, not timed: after the store opens, a submit and its run,
        # status polls, the listing, /health and a result fetch all answer
        # from the index, however many records the root holds.
        root = tmp_path / "service"
        store = JobStore(root / "jobs")
        for _ in range(prior):
            store.create(SweepJobSpec.for_grid(GRID, ONE_POINT), status="done")
        service = SweepService(root, jobs=1)
        jobs_dir = root / "jobs"
        reads, writes = [], []
        real_open, real_replace = io.open, os.replace

        def counting_open(file, mode="r", *args, **kwargs):
            if (
                isinstance(file, (str, os.PathLike))
                and Path(file).parent == jobs_dir
                and not set(mode) & set("wax+")
            ):
                reads.append(Path(file).name)
            return real_open(file, mode, *args, **kwargs)

        def counting_replace(source, target, *args, **kwargs):
            if Path(target).parent == jobs_dir:
                writes.append(Path(target).name)
            return real_replace(source, target, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(os, "replace", counting_replace)
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            service.start()
            client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
            record = client.wait(client.submit_grid(GRID, ONE_POINT).job_id)
            for _ in range(10):
                assert client.status(record.job_id).status == "done"
            assert client.health()["jobs"] == prior + 1
            assert len(client.jobs()) == prior + 1
            assert client.result_bytes(record.job_id)
        finally:
            server.shutdown()
            server.server_close()
            service.close()
        assert record.status == "done" and record.shards_total == 1
        assert reads == []
        # queued (once, with its totals), running, done: the done save
        # carries the counters of the last (here the only) shard
        assert writes == [f"{record.job_id}.json"] * 3

    def test_reads_are_copies_taken_at_a_save(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.create(SweepJobSpec.for_grid(GRID, ONE_POINT))
        record.status = "running"  # changed, not saved
        assert store.load(record.job_id).status == "queued"
        assert store.pending()[0].status == "queued"
        polled = store.load(record.job_id)
        polled.status = "failed"
        assert [r.status for r in store] == ["queued"]
        store.save(record)
        assert store.load(record.job_id).status == "running"
        assert store.pending() == []
        record.status = "done"
        store.save(record)
        assert store.load(record.job_id) == record

    def test_finished_records_cost_the_index_less_than_their_files(
        self, tmp_path
    ):
        # 20 finished raw-points jobs of 100 points: the index keeps their
        # text deflated, well under what the files take on disk, and reads
        # give back what the files hold.
        configs = build_grid(
            GRID, num_jobs=40, workstation_counts=list(range(1, 26)),
            utilizations=[0.01, 0.05, 0.1, 0.2],
        )
        assert len(configs) == 100
        spec = SweepJobSpec.for_points(configs, grid_mode(GRID))
        store = JobStore(tmp_path)
        records = [
            store.create(spec, status=status, total_points=len(configs))
            for status in ("done", "failed") * 10
        ]
        on_disk = sum(path.stat().st_size for path in tmp_path.glob("*.json"))
        tracemalloc.start()
        try:
            reopened = JobStore(tmp_path)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < on_disk / 4, (held, on_disk)
        assert [r.to_json() for r in reopened] == [r.to_json() for r in records]
        assert [r.to_json() for r in store] == [r.to_json() for r in records]


    def test_the_listing_does_not_grow_with_the_points(self, live):
        # A root of 1 000 finished raw-points jobs, of 1 and then of 2 points
        # each: GET /jobs lists summaries, whose points are a count, so the
        # listing keeps its size; GET /jobs/<id> keeps the full record.
        service, client = live
        point = build_grid(GRID, num_jobs=40)[0]
        sizes = {}
        for count in (1, 2):
            spec = SweepJobSpec.for_points([point] * count, grid_mode(GRID))
            for index in range(1, 1001):
                service.store.save(
                    JobRecord(
                        job_id=f"job-{index:06d}-00000000",
                        spec=spec,
                        status="done",
                        total_points=count,
                        submitted_at=1.0,
                    )
                )
            sizes[count] = len(client._request("/jobs"))
            summaries = client.jobs()
            assert len(summaries) == 1000
            assert {summary.spec["points"] for summary in summaries} == {count}
            full = client.status(summaries[-1].job_id)
            assert full.spec.points == (point,) * count
        assert sizes[2] == sizes[1], sizes

    def test_health_lists_no_directory(self, live, monkeypatch):
        # Counted, not timed: /health answers from the job index and does
        # not list the cache (or any directory), however many entries it
        # holds; the cache's counters are on /metrics.
        service, client = live
        client.wait(client.submit_grid(GRID, OVERRIDES).job_id)
        assert len(service.cache) == 4
        listed = []
        real_scandir, real_listdir = os.scandir, os.listdir

        def counting_scandir(path=".", *args, **kwargs):
            listed.append(path)
            return real_scandir(path, *args, **kwargs)

        def counting_listdir(path=".", *args, **kwargs):
            listed.append(path)
            return real_listdir(path, *args, **kwargs)

        monkeypatch.setattr(os, "scandir", counting_scandir)
        monkeypatch.setattr(os, "listdir", counting_listdir)
        for _ in range(5):
            assert client.health() == {"status": "ok", "jobs": 1, "queued": 0}
        assert listed == []


def _large_payload(service) -> tuple[str, str]:
    """A done record whose payload is 32 MiB of random bytes; returns its
    job id and the payload's sha256."""
    record = service.store.create(
        SweepJobSpec.for_grid(GRID, ONE_POINT),
        status="done",
        result_file="large.npz",
    )
    expected = hashlib.sha256()
    with (service.results_dir / "large.npz").open("wb") as handle:
        for _ in range(32):
            block = os.urandom(1 << 20)
            expected.update(block)
            handle.write(block)
    return record.job_id, expected.hexdigest()


class TestResultStreaming:
    def test_result_is_streamed_not_buffered(self, service):
        job_id, expected = _large_payload(service)
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.server_address[1], timeout=30.0
        )
        received = hashlib.sha256()
        tracemalloc.start()
        try:
            connection.request("GET", f"/jobs/{job_id}/result")
            answer = connection.getresponse()
            length = int(answer.getheader("Content-Length"))
            while block := answer.read(1 << 16):
                received.update(block)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            connection.close()
            server.shutdown()
            server.server_close()
        assert answer.status == 200
        assert length == 32 << 20
        assert received.hexdigest() == expected
        assert peak < 4 << 20, peak

    def test_download_is_streamed_into_the_output(self, service, tmp_path):
        job_id, expected = _large_payload(service)
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
        out = tmp_path / "downloads" / "payload.npz"
        out.parent.mkdir()
        tracemalloc.start()
        try:
            size = client.save_result(job_id, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            server.shutdown()
            server.server_close()
        assert size == 32 << 20
        assert hashlib.sha256(out.read_bytes()).hexdigest() == expected
        assert list(out.parent.iterdir()) == [out]
        assert peak < 4 << 20, peak


    def test_a_dropped_download_is_counted_not_printed(self, service, capsys):
        # A client that reads 64 KiB and resets the connection: the server's
        # next write fails, which is counted and prints no traceback.
        job_id, _ = _large_payload(service)
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        dropped = REGISTRY.get("repro_service_dropped_downloads_total")
        before = dropped.value
        try:
            with socket.create_connection(
                ("127.0.0.1", server.server_address[1]), timeout=30.0
            ) as peer:
                peer.sendall(
                    f"GET /jobs/{job_id}/result HTTP/1.1\r\n"
                    "Host: 127.0.0.1\r\n\r\n".encode()
                )
                received = 0
                while received < 64 << 10:
                    received += len(peer.recv(1 << 16))
                peer.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
            deadline = time.monotonic() + 30
            while dropped.value == before and time.monotonic() < deadline:
                time.sleep(0.01)
            assert dropped.value - before == 1
            assert service.status(job_id).status == "done"  # still serving
        finally:
            server.shutdown()
            server.server_close()
        assert capsys.readouterr().err == ""


class TestServiceCLI:
    def test_submit_status_result_subcommands(self, live, tmp_path, capsys):
        _, client = live
        url = client.base_url

        assert (
            main(
                [
                    "submit", GRID, "--url", url, "--wait",
                    "--workstations", "2,5", "--utilizations", "0.05,0.10",
                    "--num-jobs", "40",
                ]
            )
            == 0
        )
        submitted = json.loads(capsys.readouterr().out)
        assert submitted["status"] == "done"
        job_id = submitted["job_id"]

        assert main(["status", job_id, "--url", url]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "done"

        assert main(["status", "--url", url]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert job_id in [record["job_id"] for record in listing["jobs"]]

        out_path = tmp_path / "payload.npz"
        assert main(["result", job_id, "--url", url, "-o", str(out_path)]) == 0
        capsys.readouterr()
        assert out_path.read_bytes() == client.result_bytes(job_id)
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_download_leaves_no_file(self, live, tmp_path, capsys, monkeypatch):
        _, client = live
        record = client.wait(client.submit_grid(GRID, ONE_POINT).job_id)
        out_path = tmp_path / "downloads" / "payload.npz"
        out_path.parent.mkdir()

        real_copy = shutil.copyfileobj

        def dropped(source, target, *args):
            if not isinstance(source, http.client.HTTPResponse):
                return real_copy(source, target, *args)  # the server's side
            target.write(source.read(100))
            raise ConnectionResetError("connection dropped mid-body")

        monkeypatch.setattr(shutil, "copyfileobj", dropped)
        code = main(
            ["result", record.job_id, "--url", client.base_url, "-o", str(out_path)]
        )
        assert code == 2
        assert "connection dropped" in capsys.readouterr().err
        assert list(out_path.parent.iterdir()) == []

    def test_truncated_download_leaves_no_file(self, tmp_path, capsys):
        # A body cut short by the server: a chunked read sees a quiet end
        # of file, not an error, so the download must count its bytes.
        record = JobRecord(
            job_id="job-000001-00000000",
            spec=SweepJobSpec.for_grid(GRID),
            status="done",
        )

        class Truncating(http.server.BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_GET(self):
                if self.path.endswith("/result"):
                    body, length = b"PK" * 500, 10_000
                else:
                    body = json.dumps(record.to_json()).encode()
                    length = len(body)
                self.send_response(200)
                self.send_header("Content-Length", str(length))
                self.end_headers()
                self.wfile.write(body)
                self.close_connection = True

        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Truncating)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        out_path = tmp_path / "payload.npz"
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}"
            code = main(["result", record.job_id, "--url", url, "-o", str(out_path)])
        finally:
            server.shutdown()
            server.server_close()
        assert code == 2
        assert "sent 1000 of the payload's 10000 bytes" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["submit", GRID],
            ["status", "job-000001-00000000"],
            ["result", "job-000001-00000000", "-o", "unused.npz"],
            ["metrics"],
        ],
    )
    def test_cut_short_answer_exits_2_with_one_line(self, argv, capsys):
        # The stub declares 4 000 bytes and sends 47 before it hangs up.
        class CutShort(http.server.BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def _answer(self):
                self.send_response(200)
                self.send_header("Content-Length", "4000")
                self.end_headers()
                self.wfile.write(b'{"job_id": "job-000001-00000000", "status": "do')
                self.close_connection = True

            do_GET = do_POST = _answer

        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), CutShort)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}"
            code = main([*argv, "--url", url])
        finally:
            server.shutdown()
            server.server_close()
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1, err
        assert "IncompleteRead(47 bytes read" in err

    def test_result_output_failure_names_the_output(self, live, tmp_path, capsys):
        _, client = live
        record = client.wait(client.submit_grid(GRID, ONE_POINT).job_id)
        out_path = tmp_path / "no-such-directory" / "payload.npz"
        argv = ["result", record.job_id, "-o", str(out_path)]
        assert main([*argv, "--url", client.base_url]) == 2
        err = capsys.readouterr().err
        assert f"cannot write {out_path}: No such file or directory" in err
        assert "cannot reach" not in err and ".tmp" not in err
        # a connection error keeps its own message
        assert main([*argv, "--url", "http://127.0.0.1:9"]) == 2
        assert "cannot reach the service at http://127.0.0.1:9" in capsys.readouterr().err
        assert not out_path.parent.exists()

    def test_cli_errors_exit_2(self, live, capsys):
        _, client = live
        url = client.base_url
        assert main(["submit", "not-a-grid", "--url", url]) == 2
        assert "not-a-grid" in capsys.readouterr().err
        assert main(["status", "job-999999-deadbeef", "--url", url]) == 2
        assert "404" in capsys.readouterr().err
        assert main(["status", "--wait", "--url", url]) == 2
        assert "needs a job id" in capsys.readouterr().err
        # No service at all: connection errors are a clean exit 2, not a
        # traceback.
        assert main(["status", "--url", "http://127.0.0.1:9"]) == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_result_of_unfinished_job_exits_1(self, service, capsys):
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}"
            record_main = main(
                ["submit", GRID, "--url", url, "--num-jobs", "40"]
            )
            assert record_main == 0
            job_id = json.loads(capsys.readouterr().out)["job_id"]
            assert main(["result", job_id, "--url", url, "-o", "unused.npz"]) == 1
            assert "queued" in capsys.readouterr().err
        finally:
            server.shutdown()
            server.server_close()
