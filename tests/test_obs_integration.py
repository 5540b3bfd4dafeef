"""Telemetry integration: the contracts the spine must never break.

The load-bearing pin is **observer purity**: a traced, tapped, fully
instrumented sweep serializes to an NPZ payload *byte for byte* equal to a
bare run's — telemetry can never perturb a result.  On top of that this
module checks the numbers the spine reports are *true*: the Prometheus
counters move by exactly what :class:`SweepOutcome` / the job record say
happened, and ``GET /metrics`` serves a parseable exposition of them.
"""

from __future__ import annotations

import threading
import time
import types
import urllib.request

import pytest

from repro.backends import run_simulation
from repro.engine import SweepRunner, build_grid, grid_mode
from repro.obs import (
    REGISTRY,
    SimEventTap,
    configure_tracing,
    disable_tracing,
    install_sim_tap,
    parse_prometheus_text,
    read_trace_events,
    uninstall_sim_tap,
)
from repro.service import (
    ServiceClient,
    SweepService,
    make_server,
    save_result_npz,
)

GRID = "fig01"
OVERRIDES = dict(
    num_jobs=60,
    num_batches=4,
    workstation_counts=(2, 4),
    utilizations=(0.05, 0.10),
)


@pytest.fixture
def grid():
    return build_grid(GRID, **OVERRIDES)


@pytest.fixture(autouse=True)
def _clean_observers():
    yield
    disable_tracing()
    uninstall_sim_tap()


def payload_bytes(tmp_path, name, results):
    return save_result_npz(tmp_path / f"{name}.npz", results).read_bytes()


def counter_value(name: str, **labels) -> float:
    metric = REGISTRY.get(name)
    if metric is None:
        return 0.0
    child = metric.labels(**labels) if labels else metric
    return child.value


class TestObserverPurity:
    """Spans and taps never perturb results — the acceptance pin."""

    def test_traced_sharded_sweep_is_bitwise_identical(
        self, tmp_path, grid, monkeypatch
    ):
        bare = SweepRunner(jobs=1).run(grid, mode=grid_mode(GRID))

        monkeypatch.setattr("repro.service.service.SHARD_SIZE", 2)
        service = SweepService(tmp_path / "service", jobs=1)
        jsonl = tmp_path / "sweep.trace.jsonl"
        configure_tracing(jsonl)
        try:
            record = service.submit_grid(GRID, OVERRIDES)
            service.run_pending()
        finally:
            disable_tracing()

        traced = service.result_path(record.job_id)
        assert traced is not None
        assert traced.read_bytes() == payload_bytes(tmp_path, "bare", bare.results)
        # The trace itself: >= 1 span per shard and per point.
        spans = [
            e for e in read_trace_events(jsonl) if e["kind"] == "span"
        ]
        names = [s["name"] for s in spans]
        assert names.count("shard") == record.shards_total == 2
        assert names.count("point") == len(grid) == 4
        shard_ids = {s["id"] for s in spans if s["name"] == "shard"}
        assert all(
            s["parent"] in shard_ids for s in spans if s["name"] == "sweep"
        )

    @pytest.mark.parametrize("mode", ["event-driven", "event-kernel"])
    def test_tapped_run_is_bitwise_identical(self, tmp_path, mode, grid):
        # direct backend runs: a sweep would execute both modes on the kernel
        config = grid[0]
        bare = run_simulation(config, mode)

        tap = install_sim_tap(SimEventTap())
        try:
            tapped = run_simulation(config, mode)
        finally:
            uninstall_sim_tap()

        assert payload_bytes(tmp_path, "tapped", [tapped]) == (
            payload_bytes(tmp_path, "bare", [bare])
        )
        # The tap actually saw the run: owners arrive in every busy system.
        counts = tap.counts()
        assert counts.get("owner-arrival", 0) > 0


class TestMetricsTruth:
    """Counters move by exactly what the outcome reports."""

    def test_sweep_counters_match_outcome(self, tmp_path, grid):
        mode = grid_mode(GRID)
        runner = SweepRunner(jobs=1, cache=tmp_path / "cache")

        before_sim = counter_value("repro_sweep_points_total", path="simulated")
        before_hit = counter_value("repro_sweep_points_total", path="cached")
        first = runner.run(grid, mode=mode)
        assert first.simulated == len(grid) and first.cache_hits == 0
        assert counter_value(
            "repro_sweep_points_total", path="simulated"
        ) - before_sim == first.simulated
        assert counter_value(
            "repro_sweep_points_total", path="cached"
        ) - before_hit == 0

        second = runner.run(grid, mode=mode)
        assert second.simulated == 0 and second.cache_hits == len(grid)
        assert counter_value(
            "repro_sweep_points_total", path="cached"
        ) - before_hit == second.cache_hits

    def test_point_latency_histogram_observes_each_execution(self, grid):
        hist = REGISTRY.get("repro_sweep_point_seconds")
        before = hist.count
        SweepRunner(jobs=1).run(grid[:2], mode=grid_mode(GRID))
        assert hist.count - before == 2

    def test_profile_report_survives_zero_executed_points(self, tmp_path, grid):
        runner = SweepRunner(jobs=1, cache=tmp_path / "cache")
        mode = grid_mode(GRID)
        warm = runner.run(grid[:1], mode=mode, profile=True)
        assert "cumulative" in warm.profile_report()

        replay = runner.run(grid[:1], mode=mode, profile=True)
        assert replay.simulated == 0 and replay.cache_hits == 1
        assert replay.profile is None
        report = replay.profile_report()  # must not raise on empty stats
        assert "no profile collected" in report


@pytest.fixture
def live(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.service.service.SHARD_SIZE", 2)
    service = SweepService(tmp_path / "service", jobs=1)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    service.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    yield service, ServiceClient(url), url
    server.shutdown()
    server.server_close()
    service.stop(timeout=10.0)


class TestMetricsEndpoint:
    def test_scrape_parses_and_counters_cohere_with_job_record(self, live):
        service, client, url = live
        before = parse_prometheus_text(client.metrics_text())

        record = client.submit_grid(GRID, OVERRIDES)
        record = client.wait(record.job_id, timeout=120.0)
        assert record.status == "done"

        with urllib.request.urlopen(f"{url}/metrics", timeout=10.0) as answer:
            assert answer.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            text = answer.read().decode("utf-8")
        after = parse_prometheus_text(text)

        def delta(name, *pairs):
            key = (name, tuple(sorted(pairs)))
            return after.get(key, 0.0) - before.get(key, 0.0)

        # Job lifecycle counters.
        assert delta("repro_service_jobs_submitted_total") == 1.0
        assert delta("repro_service_jobs_finished_total", ("status", "done")) == 1.0
        assert after[("repro_service_queue_depth", ())] == 0.0
        # Point counters agree exactly with the job record's.
        assert (
            delta("repro_sweep_points_total", ("path", "simulated"))
            == record.simulated
        )
        assert (
            delta("repro_sweep_points_total", ("path", "cached"))
            == record.cache_hits
        )
        assert record.simulated + record.cache_hits == record.total_points
        # Shard timings were observed for every shard of the job.
        assert (
            delta("repro_shard_seconds_count", ("executor", "sweep"))
            == record.shards_total
        )

    def test_cli_metrics_subcommand_scrapes_the_service(self, live, capsys):
        from repro.cli import main

        _, _, url = live
        assert main(["metrics", "--url", url]) == 0
        out = capsys.readouterr().out
        parsed = parse_prometheus_text(out)
        assert any(name.startswith("repro_") for name, _ in parsed)


class _ScriptedClient(ServiceClient):
    """A client whose ``status`` answers come from a canned script."""

    def __init__(self, script):
        super().__init__("http://scripted.invalid")
        self.script = list(script)
        self.polls = 0

    def status(self, job_id):
        self.polls += 1
        status, points = self.script[min(self.polls - 1, len(self.script) - 1)]
        return types.SimpleNamespace(
            job_id=job_id,
            status=status,
            points_completed=points,
            total_points=4,
        )


class TestWaitBackoff:
    def test_backoff_grows_and_caps(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", lambda s: sleeps.append(s))
        client = _ScriptedClient(
            [("running", 0)] * 5 + [("done", 4)]
        )
        record = client.wait(
            "job-x", timeout=300.0, poll_seconds=0.2, max_poll_seconds=0.5
        )
        assert record.status == "done"
        assert sleeps == pytest.approx([0.2, 0.3, 0.45, 0.5, 0.5])

    def test_on_progress_fires_only_on_advancement(self, monkeypatch):
        monkeypatch.setattr(time, "sleep", lambda s: None)
        client = _ScriptedClient(
            [("running", 0), ("running", 0), ("running", 2),
             ("running", 2), ("done", 4)]
        )
        seen = []
        client.wait("job-x", on_progress=lambda r: seen.append(r.points_completed))
        assert seen == [0, 2, 4]

    def test_timeout_reports_last_status(self, monkeypatch):
        monkeypatch.setattr(time, "sleep", lambda s: None)
        client = _ScriptedClient([("running", 1)])
        with pytest.raises(TimeoutError, match="still running"):
            client.wait("job-x", timeout=0.0)
