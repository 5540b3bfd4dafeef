"""Parallel programs for the PVM-like substrate.

The paper's experimental validation runs a *local computation* program: a
master forks one worker per workstation, each worker computes independently
(no interprocess communication), records its own start/finish times, and the
master reports the **maximum task execution time** — deliberately excluding
the spawn/collection overhead of the parallel-computing package so the
measurement isolates owner interference (Section 4).

:func:`run_local_computation` reproduces that experiment.
:func:`run_self_scheduling` is a master/worker *work-queue* (self-scheduling)
version of the same computation, where the job is split into more chunks
than workers and each worker asks for the next chunk when it finishes the
previous one.  This is the classic remedy for stragglers and provides an
interesting extension experiment: dynamic scheduling partially hides owner
interference that static partitioning cannot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Sequence

import numpy as np

from .machine import PvmContext, VirtualMachine
from .messages import ANY_SOURCE, MessageBuffer

__all__ = [
    "RESULT_TAG",
    "WORK_TAG",
    "DONE_TAG",
    "TaskTiming",
    "LocalComputationResult",
    "local_computation_worker",
    "local_computation_master",
    "run_local_computation",
    "SelfSchedulingResult",
    "run_self_scheduling",
]

#: Message tags (arbitrary but fixed, as in a real PVM program).
RESULT_TAG = 11
WORK_TAG = 21
DONE_TAG = 31


@dataclass(frozen=True)
class TaskTiming:
    """Start/end timestamps reported by one worker."""

    tid: int
    host: int
    start_time: float
    end_time: float
    preemptions: int

    @property
    def execution_time(self) -> float:
        """The worker's task execution time (its own clock, as in the paper)."""
        return self.end_time - self.start_time


@dataclass(frozen=True)
class LocalComputationResult:
    """Result of one run of the local-computation experiment."""

    job_demand: float
    workers: int
    timings: tuple[TaskTiming, ...]
    master_elapsed: float

    @property
    def max_task_time(self) -> float:
        """Maximum task execution time — the paper's primary measured metric."""
        return max(t.execution_time for t in self.timings)

    @property
    def mean_task_time(self) -> float:
        return float(np.mean([t.execution_time for t in self.timings]))

    @property
    def total_preemptions(self) -> int:
        return int(sum(t.preemptions for t in self.timings))

    def speedup_versus(self, single_workstation_time: float) -> float:
        """Speedup as defined in Section 4: max-task-time(1) / max-task-time(W)."""
        return single_workstation_time / self.max_task_time


def local_computation_worker(ctx: PvmContext, demand: float) -> Generator:
    """Worker side: compute ``demand`` units, then report timings to the parent."""
    start = ctx.now
    execution = yield from ctx.compute(demand)
    end = ctx.now
    buffer = MessageBuffer()
    buffer.pack_int(ctx.mytid())
    buffer.pack_int(ctx.host)
    buffer.pack_double(start)
    buffer.pack_double(end)
    buffer.pack_int(execution.preemptions)
    parent = ctx.parent()
    assert parent is not None, "local computation worker must be spawned by a master"
    yield from ctx.send(parent, buffer, RESULT_TAG)
    return end - start


def local_computation_master(
    ctx: PvmContext,
    job_demand: float,
    workers: int,
    demands: Optional[Sequence[float]] = None,
) -> Generator:
    """Master side: fork one worker per host, gather timings, report the maximum."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    if workers > ctx.vm.num_hosts:
        raise ValueError(
            f"cannot run {workers} workers on {ctx.vm.num_hosts} hosts "
            "(the experiment places one task per workstation)"
        )
    started = ctx.now
    if demands is None:
        demands = [job_demand / workers] * workers
    if len(demands) != workers:
        raise ValueError(
            f"expected {workers} per-task demands, got {len(demands)}"
        )
    tids = []
    for w in range(workers):
        tid = yield from ctx.spawn(
            local_computation_worker, float(demands[w]), host=w
        )
        tids.append(tid)
    timings: list[TaskTiming] = []
    for _ in tids:
        message = yield from ctx.recv(source=ANY_SOURCE, tag=RESULT_TAG)
        buf = message.buffer
        timings.append(
            TaskTiming(
                tid=buf.unpack_int(),
                host=buf.unpack_int(),
                start_time=buf.unpack_double(),
                end_time=buf.unpack_double(),
                preemptions=buf.unpack_int(),
            )
        )
    timings.sort(key=lambda t: t.host)
    return LocalComputationResult(
        job_demand=float(job_demand),
        workers=workers,
        timings=tuple(timings),
        master_elapsed=ctx.now - started,
    )


def run_local_computation(
    vm: VirtualMachine,
    job_demand: float,
    workers: Optional[int] = None,
    demands: Optional[Sequence[float]] = None,
) -> LocalComputationResult:
    """Run the paper's local-computation experiment once on a virtual machine."""
    if workers is None:
        workers = vm.num_hosts
    return vm.run_program(
        local_computation_master, float(job_demand), int(workers), demands, host=0
    )


@dataclass(frozen=True)
class SelfSchedulingResult:
    """Result of the dynamic (work-queue) variant of the computation."""

    job_demand: float
    workers: int
    chunks: int
    chunk_counts: tuple[int, ...]
    worker_busy_times: tuple[float, ...]
    elapsed: float

    @property
    def makespan(self) -> float:
        """Wall-clock completion time of the whole job (master's view)."""
        return self.elapsed

    @property
    def load_imbalance(self) -> float:
        """Max worker busy time over mean worker busy time (1.0 = perfectly even)."""
        busy = np.asarray(self.worker_busy_times)
        mean = float(busy.mean())
        if mean == 0:
            return 1.0
        return float(busy.max()) / mean


def _self_scheduling_worker(ctx: PvmContext) -> Generator:
    """Worker: repeatedly request a chunk, compute it, and return the result."""
    parent = ctx.parent()
    assert parent is not None
    busy = 0.0
    completed = 0
    # Announce readiness.
    ready = MessageBuffer().pack_int(ctx.mytid())
    yield from ctx.send(parent, ready, RESULT_TAG)
    while True:
        message = yield from ctx.recv(source=parent)
        if message.tag == DONE_TAG:
            break
        chunk_demand = message.buffer.unpack_double()
        execution = yield from ctx.compute(chunk_demand)
        busy += execution.elapsed
        completed += 1
        reply = MessageBuffer().pack_int(ctx.mytid())
        yield from ctx.send(parent, reply, RESULT_TAG)
    summary = MessageBuffer().pack_int(completed).pack_double(busy)
    yield from ctx.send(parent, summary, DONE_TAG)
    return completed


def _self_scheduling_master(
    ctx: PvmContext, job_demand: float, workers: int, chunks: int
) -> Generator:
    """Master: hand out chunks to whichever worker asks next (work queue)."""
    started = ctx.now
    chunk_demand = job_demand / chunks
    tids = []
    for w in range(workers):
        tid = yield from ctx.spawn(_self_scheduling_worker, host=w % ctx.vm.num_hosts)
        tids.append(tid)
    remaining = chunks
    completed = 0
    has_outstanding_chunk: dict[int, bool] = {tid: False for tid in tids}
    # Serve "give me work" requests until every chunk has been completed.
    # Each RESULT_TAG message means the sender is idle: either its initial
    # "ready" announcement or the completion of the chunk it was assigned.
    while completed < chunks:
        message = yield from ctx.recv(source=ANY_SOURCE, tag=RESULT_TAG)
        worker_tid = message.buffer.unpack_int()
        if has_outstanding_chunk.get(worker_tid, False):
            completed += 1
            has_outstanding_chunk[worker_tid] = False
        if remaining > 0:
            work = MessageBuffer().pack_double(chunk_demand)
            yield from ctx.send(worker_tid, work, WORK_TAG)
            remaining -= 1
            has_outstanding_chunk[worker_tid] = True
    # Tell everyone to stop and collect their summaries.
    chunk_counts: dict[int, int] = {}
    busy_times: dict[int, float] = {}
    for tid in tids:
        done = MessageBuffer()
        yield from ctx.send(tid, done, DONE_TAG)
    for _ in tids:
        message = yield from ctx.recv(source=ANY_SOURCE, tag=DONE_TAG)
        count = message.buffer.unpack_int()
        busy = message.buffer.unpack_double()
        chunk_counts[message.source] = count
        busy_times[message.source] = busy
    ordered = sorted(tids)
    return SelfSchedulingResult(
        job_demand=float(job_demand),
        workers=workers,
        chunks=chunks,
        chunk_counts=tuple(chunk_counts[t] for t in ordered),
        worker_busy_times=tuple(busy_times[t] for t in ordered),
        elapsed=ctx.now - started,
    )


def run_self_scheduling(
    vm: VirtualMachine,
    job_demand: float,
    workers: Optional[int] = None,
    chunks_per_worker: int = 4,
) -> SelfSchedulingResult:
    """Run the dynamic work-queue variant of the computation.

    The job is split into ``chunks_per_worker * workers`` equal chunks and
    handed out on demand, so a workstation suffering heavy owner interference
    simply completes fewer chunks instead of dragging the whole job.
    """
    if workers is None:
        workers = vm.num_hosts
    chunks = int(chunks_per_worker) * int(workers)
    if chunks < workers:
        raise ValueError("need at least one chunk per worker")
    return vm.run_program(
        _self_scheduling_master, float(job_demand), int(workers), chunks, host=0
    )
