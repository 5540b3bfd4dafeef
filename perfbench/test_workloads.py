"""Checks of the benchmark's inputs: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from digests import load_reference  # noqa: E402
from workloads import (  # noqa: E402
    COPIES,
    INTERACTIVE_CATALOGUE,
    WORKLOADS,
    all_jobs,
    interactive_jobs,
    job_key,
    session_jobs,
)

from repro.engine import config_fingerprint  # noqa: E402
from repro.service import SweepJobSpec  # noqa: E402


def test_same_seed_same_jobs() -> None:
    for workload in WORKLOADS:
        assert session_jobs(workload, 7) == session_jobs(workload, 7)


def test_other_seed_other_interactive_jobs() -> None:
    assert interactive_jobs(7) != interactive_jobs(8)


def test_interactive_shape() -> None:
    jobs = interactive_jobs(3)
    assert len(jobs) >= 200
    assert len({job_key(job) for job in jobs}) * COPIES == len(jobs)
    keys = {job_key(job) for job in INTERACTIVE_CATALOGUE}
    assert all(job_key(job) in keys for job in jobs)


def test_jobs_are_plain_grid_submissions() -> None:
    for seed in (0, 1, 2):
        for workload in WORKLOADS:
            for job in session_jobs(workload, seed):
                assert set(job) == {"grid", "overrides"}


def test_every_job_resolves_and_has_digests() -> None:
    reference = load_reference()
    for job in all_jobs():
        configs, _ = SweepJobSpec.from_json(job).resolve()
        assert 1 <= len(configs) == len(reference[job_key(job)])


def test_catalogue_jobs_share_no_point() -> None:
    seen = set()
    for job in INTERACTIVE_CATALOGUE:
        configs, mode = SweepJobSpec.from_json(job).resolve()
        assert 1 <= len(configs) <= 4
        for config in configs:
            fingerprint = config_fingerprint(config, mode)
            assert fingerprint not in seen
            seen.add(fingerprint)
