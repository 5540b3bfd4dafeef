"""The benchmark's inputs: which grid jobs each workload submits, in order.

A job is a plain submission payload, ``{"grid": ..., "overrides": ...}``,
exactly what goes into ``POST /jobs``.  It names no executor, so whatever
route the service takes by default is the route measured.

Only the workload seed given to the benchmark chooses the inputs; the
service never sees it.  ``event-grids`` and ``figure-grids`` submit fixed
grids, and the seed only shuffles their order.  ``interactive`` draws its
whole job list from the seed.  Every job comes from a finite catalogue, so
``digests.json`` holds a reference digest for every point a run can ask for.
"""

from __future__ import annotations

import json
import random
from typing import Any

Job = dict[str, Any]

#: Event-driven grids, shrunk so a cold pass takes a few seconds on two
#: CPUs while simulation stays about 95% of the job time.  The cold pass
#: submits each grid one owner utilization at a time; ``WARM_PASSES`` warm
#: resubmissions of each whole grid follow, enough that the warm figures are
#: steady and the median job is clearly a warm one.
_EVENT_SIZE = {"num_jobs": 120}
_EVENT_UTILIZATIONS = (0.05, 0.2)
WARM_PASSES = 4
EVENT_GRIDS: tuple[Job, ...] = tuple(
    {"grid": name, "overrides": {**_EVENT_SIZE, "utilizations": list(_EVENT_UTILIZATIONS)}}
    for name in ("policy-compare", "arrival-sweep", "admission-sweep")
)
EVENT_COLD: tuple[Job, ...] = tuple(
    {"grid": job["grid"], "overrides": {**_EVENT_SIZE, "utilizations": [utilization]}}
    for job in EVENT_GRIDS for utilization in _EVENT_UTILIZATIONS
)

#: The paper's Monte-Carlo figure grids at one owner utilization: eight
#: points each, whose large sample arrays make cache writes and result
#: encoding, not simulation, the bulk of the job time.
FIGURE_GRIDS: tuple[Job, ...] = tuple(
    {"grid": name, "overrides": {"utilizations": [0.1]}}
    for name in ("fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig09", "validation")
)

#: Closed-loop parameters of ``interactive``: each job is submitted
#: ``COPIES`` times, so three in four submissions are all cache hits.
COPIES = 4
#: Grid seeds a job may take: the workload seed picks one per job, so only
#: the sampled values, never the shape of a session, depend on it.
_SEEDS = (0, 1)
_SMALL_EVENT_JOBS = 20
_FIGURE_CHUNKS = ((1, 5, 10, 20), (40,), (60, 80), (100,))


def _job_shapes() -> list[Job]:
    """The 56 jobs of 1-4 points of every session, without their seed."""
    jobs: list[Job] = []
    for grid in ("fig01", "fig09"):
        for utilization in (0.01, 0.05, 0.1, 0.2):
            for chunk in _FIGURE_CHUNKS:
                jobs.append({"grid": grid, "overrides": {
                    "utilizations": [utilization], "workstation_counts": list(chunk)}})
    small = {"policy-compare": ("policies", (("static",), ("self-scheduling", "migrate-on-owner-arrival")), (8, 16, 32)),
             "arrival-sweep": ("arrival_rates", ((0.25,), (0.5, 0.75)), (4, 8, 16))}
    for grid, (axis, chunks, stations) in small.items():
        for utilization in (0.05, 0.2):
            for workstations in stations:
                for chunk in chunks:
                    jobs.append({"grid": grid, "overrides": {
                        "num_jobs": _SMALL_EVENT_JOBS, "utilizations": [utilization],
                        "workstation_counts": [workstations], axis: list(chunk)}})
    return jobs


_SHAPES: tuple[Job, ...] = tuple(_job_shapes())

#: Every job ``interactive`` may submit; no two share a point.
INTERACTIVE_CATALOGUE: tuple[Job, ...] = tuple(
    {"grid": job["grid"], "overrides": {**job["overrides"], "seed": seed}}
    for job in _SHAPES for seed in _SEEDS
)


def interactive_jobs(seed: int) -> list[Job]:
    """The seeded closed-loop job list of ``interactive``.

    The seed picks each job's grid seed and the order of all ``COPIES``
    submissions; the first submission of a job simulates its points and the
    later ones replay them from the cache.
    """
    rng = random.Random(seed)
    distinct = [
        {"grid": job["grid"], "overrides": {**job["overrides"], "seed": rng.choice(_SEEDS)}}
        for job in _SHAPES
    ]
    submissions = distinct * COPIES
    rng.shuffle(submissions)
    return submissions


def _shuffled(jobs: tuple[Job, ...], seed: int) -> list[Job]:
    order = list(jobs)
    random.Random(seed).shuffle(order)
    return order


def session_jobs(workload: str, seed: int) -> list[Job]:
    """One session's submissions, in order, for a workload and seed."""
    if workload == "event-grids":
        return _shuffled(EVENT_COLD, seed) + _shuffled(EVENT_GRIDS * WARM_PASSES, seed)
    if workload == "figure-grids":
        cold = _shuffled(FIGURE_GRIDS, seed)
        return cold + cold
    if workload == "interactive":
        return interactive_jobs(seed)
    raise KeyError(f"unknown workload {workload!r}; known: {WORKLOADS}")


WORKLOADS = ("event-grids", "figure-grids", "interactive")


def all_jobs() -> list[Job]:
    """Every distinct job any workload can submit (the digest universe)."""
    return [*EVENT_COLD, *EVENT_GRIDS, *FIGURE_GRIDS, *INTERACTIVE_CATALOGUE]


def job_key(job: Job) -> str:
    """Canonical text of a submission, the key of its reference digests."""
    return json.dumps(job, sort_keys=True, separators=(",", ":"))
