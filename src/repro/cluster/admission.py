"""Admission control and space sharing for the open-system backend.

The classless PR-3 job stream admits jobs through a single counting semaphore
(``max_concurrent_jobs``): every job occupies the whole cluster.  This module
supplies the machinery behind :class:`~repro.core.params.JobClassSpec` streams,
where a *moldable* job requests a width ``w <= W`` and runs on a station
subset so several jobs space-share the cluster concurrently:

:class:`AdmissionController`
    Resource-style bookkeeping of which stations are free, which job holds
    which subset, and a queue of waiting tickets.  Dispatch is synchronous
    (no controller process), exactly like :class:`repro.desim.Resource` — the
    reason a single full-width FCFS class reproduces the classless stream
    bitwise.

:class:`FCFSAdmission`
    Strict arrival order: the head of the queue starts as soon as its width
    fits; nothing overtakes it (head-of-line blocking and all).

:class:`EasyBackfillAdmission`
    FCFS plus EASY-style backfilling: when the head does not fit, a later,
    narrower job may jump ahead **iff** it cannot delay the head's estimated
    start — it either finishes (by estimate) before enough stations free up
    for the head, or fits into the stations the head will leave unused.
    Estimates use the ideal interference-adjusted service time
    ``demand / (w * (1 - U))`` scaled by ``runtime_factor``.

:class:`PriorityAdmission`
    The queue is ordered by (priority desc, arrival order); the head blocks
    like FCFS.  With ``preemptive=True`` an arriving job whose priority
    strictly exceeds that of running jobs may *preempt* them: victims are
    killed and requeued with their full demand (restart semantics — partial
    work is discarded, as in checkpointless kill-and-requeue systems), chosen
    lowest-priority-first, most-recently-started-first, and only when the
    reclaimed width actually lets the arrival start.

Every admission/release/preemption is appended to :attr:`AdmissionController.log`
so the property tests can verify the subsystem's invariants: no two jobs ever
share a station, the occupied width never exceeds ``W``, the cluster never
idles completely while jobs wait, and (for the priority policy) a job is never
admitted while a strictly more important one waits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..desim import Environment, Event
from .owner import TASK_PRIORITY
from .workstation import Workstation

__all__ = [
    "AdmissionPreemption",
    "AdmissionTicket",
    "AdmissionEvent",
    "AdmissionPolicy",
    "FCFSAdmission",
    "EasyBackfillAdmission",
    "PriorityAdmission",
    "ADMISSION_POLICIES",
    "ADMISSION_POLICY_NAMES",
    "make_admission_policy",
    "AdmissionController",
]


@dataclass(frozen=True)
class AdmissionPreemption:
    """Interrupt cause delivered to a job evicted by preemptive admission.

    Distinct from :class:`repro.desim.Preempted` (an *owner* borrowing the
    CPU, which the workstation absorbs): a workstation re-raises interrupts
    carrying this cause, killing the task so the job can be requeued.
    """

    job_id: int
    preempted_by: int
    time: float


@dataclass(frozen=True)
class AdmissionEvent:
    """One entry of the controller's audit log (consumed by invariant tests)."""

    time: float
    kind: str  # "arrive" | "admit" | "release" | "preempt"
    job_id: int
    width: int
    priority: int
    stations: tuple[int, ...] = ()


class AdmissionTicket:
    """One queued admission request: a job waiting for a station subset."""

    __slots__ = ("record", "width", "priority", "class_id", "event", "seq",
                 "process", "stations")

    def __init__(self, record, width: int, priority: int, class_id: int,
                 event: Event, seq: int, process) -> None:
        self.record = record
        self.width = width
        self.priority = priority
        self.class_id = class_id
        self.event = event
        self.seq = seq
        #: The submitting job process (interrupted on preemption corner cases).
        self.process = process
        #: Station indices allocated at admission (empty until admitted).
        self.stations: tuple[int, ...] = ()

    @property
    def sort_key(self) -> tuple[int, int]:
        """Priority-policy queue order: important first, then arrival order."""
        return (-self.priority, self.seq)


class _RunningJob:
    """Bookkeeping for one admitted job."""

    __slots__ = ("ticket", "stations", "admitted_at", "estimate")

    def __init__(self, ticket: AdmissionTicket, stations: tuple[int, ...],
                 admitted_at: float, estimate: float) -> None:
        self.ticket = ticket
        self.stations = stations
        self.admitted_at = admitted_at
        #: Ideal interference-adjusted service-time estimate (for backfilling).
        self.estimate = estimate

    @property
    def width(self) -> int:
        return len(self.stations)


class AdmissionPolicy:
    """Base interface: decide which queued job (if any) starts next.

    Policies are consulted by the controller after every arrival and release;
    :meth:`select` returns one ticket to admit *now* (the controller loops
    until it returns ``None``, so policies see fresh state between picks).
    """

    name: str = "abstract"

    def order_queue(self, queue: list[AdmissionTicket]) -> None:
        """Hook: re-order the waiting queue after an arrival (default FIFO)."""

    def select(self, controller: "AdmissionController") -> AdmissionTicket | None:
        raise NotImplementedError

    def preemption_plan(
        self, controller: "AdmissionController"
    ) -> tuple[AdmissionTicket, list[_RunningJob]] | None:
        """Hook: victims to evict so the queue head can start (default none)."""
        return None


@dataclass(frozen=True)
class FCFSAdmission(AdmissionPolicy):
    """Strict arrival order with head-of-line blocking."""

    name = "fcfs"

    def select(self, controller: "AdmissionController") -> AdmissionTicket | None:
        if controller.queue and controller.queue[0].width <= controller.free_width:
            return controller.queue[0]
        return None


@dataclass(frozen=True)
class EasyBackfillAdmission(AdmissionPolicy):
    """FCFS head plus EASY backfilling against estimated completions.

    ``runtime_factor`` pads the ideal service-time estimate (owner
    interference and queueing inside the job make real service longer than
    ideal); it shapes only *which* jobs backfill, never correctness.
    """

    name = "easy-backfill"
    runtime_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.runtime_factor <= 0.0:
            raise ValueError(
                f"runtime_factor must be positive, got {self.runtime_factor!r}"
            )

    def select(self, controller: "AdmissionController") -> AdmissionTicket | None:
        queue = controller.queue
        free = controller.free_width
        if not queue:
            return None
        head = queue[0]
        if head.width <= free:
            return head
        # Head blocked: compute its reservation from estimated completions.
        now = controller.env.now
        shadow, extra = self._reservation(controller, head, free, now)
        for ticket in queue[1:]:
            if ticket.width > free:
                continue
            finish = now + self.runtime_factor * controller.estimate(ticket)
            if finish <= shadow or ticket.width <= extra:
                return ticket
        return None

    def _reservation(
        self,
        controller: "AdmissionController",
        head: AdmissionTicket,
        free: int,
        now: float,
    ) -> tuple[float, int]:
        """Estimated head start time (shadow) and the width it leaves spare."""
        releases = sorted(
            controller.running.values(),
            key=lambda job: job.admitted_at + self.runtime_factor * job.estimate,
        )
        available = free
        for job in releases:
            available += job.width
            if available >= head.width:
                shadow = job.admitted_at + self.runtime_factor * job.estimate
                return max(shadow, now), available - head.width
        # Unreachable: the whole cluster always fits a validated width.
        return now, free  # pragma: no cover


@dataclass(frozen=True)
class PriorityAdmission(AdmissionPolicy):
    """Priority-ordered queue, optionally with preemptive admission."""

    name = "priority"
    preemptive: bool = False

    def order_queue(self, queue: list[AdmissionTicket]) -> None:
        queue.sort(key=lambda ticket: ticket.sort_key)

    def select(self, controller: "AdmissionController") -> AdmissionTicket | None:
        if controller.queue and controller.queue[0].width <= controller.free_width:
            return controller.queue[0]
        return None

    def preemption_plan(
        self, controller: "AdmissionController"
    ) -> tuple[AdmissionTicket, list[_RunningJob]] | None:
        if not self.preemptive or not controller.queue:
            return None
        head = controller.queue[0]
        victims = sorted(
            (
                job
                for job in controller.running.values()
                if job.ticket.priority < head.priority
            ),
            key=lambda job: (job.ticket.priority, -job.admitted_at, -job.ticket.seq),
        )
        reclaimed = controller.free_width
        plan: list[_RunningJob] = []
        for job in victims:
            plan.append(job)
            reclaimed += job.width
            if reclaimed >= head.width:
                return head, plan
        return None


#: Registry of the built-in admission policies by canonical name.
ADMISSION_POLICIES: dict[str, type[AdmissionPolicy]] = {
    FCFSAdmission.name: FCFSAdmission,
    EasyBackfillAdmission.name: EasyBackfillAdmission,
    PriorityAdmission.name: PriorityAdmission,
}

ADMISSION_POLICY_NAMES: tuple[str, ...] = tuple(ADMISSION_POLICIES)


def make_admission_policy(name: str, **kwargs) -> AdmissionPolicy:
    """Instantiate an admission policy by name.

    Numeric keyword values are coerced to the annotated field types
    (``preemptive`` arrives as a float when round-tripped through a
    :class:`~repro.core.params.JobArrivalSpec`'s canonical kwargs).
    """
    try:
        cls = ADMISSION_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown admission policy {name!r}; "
            f"known policies: {sorted(ADMISSION_POLICIES)}"
        ) from None
    if "preemptive" in kwargs:
        kwargs["preemptive"] = bool(kwargs["preemptive"])
    if "runtime_factor" in kwargs:
        kwargs["runtime_factor"] = float(kwargs["runtime_factor"])
    return cls(**kwargs)


class AdmissionController:
    """Allocate disjoint station subsets to moldable jobs under a policy.

    The controller owns no simulation process: requests and releases run
    synchronously inside the calling job's process step (mirroring the
    :class:`repro.desim.Resource` mechanics), and admitted tickets learn their
    station subset through ``ticket.stations`` before their event fires.

    Parameters
    ----------
    env:
        The simulation environment.
    stations:
        The full cluster (allocation hands out indices into this sequence).
    policy:
        The :class:`AdmissionPolicy` deciding who starts next.
    estimate_service:
        Callable ``(demand, width) -> ideal service time`` used by estimating
        policies (EASY backfilling).
    """

    def __init__(
        self,
        env: Environment,
        stations: Sequence[Workstation],
        policy: AdmissionPolicy,
        estimate_service: Callable[[float, int], float] | None = None,
    ) -> None:
        self.env = env
        self.stations = list(stations)
        self.policy = policy
        self._estimate_service = estimate_service or (
            lambda demand, width: demand / width
        )
        self.free: list[int] = list(range(len(self.stations)))
        self.queue: list[AdmissionTicket] = []
        self.running: dict[int, _RunningJob] = {}
        self.log: list[AdmissionEvent] = []
        self._seq = 0

    # -- views -------------------------------------------------------------

    @property
    def free_width(self) -> int:
        """Number of stations not allocated to any job."""
        return len(self.free)

    def estimate(self, ticket: AdmissionTicket) -> float:
        """Ideal service-time estimate for a queued ticket."""
        return self._estimate_service(ticket.record.demand, ticket.width)

    # -- the resource-style interface --------------------------------------

    def request(
        self, record, width: int, priority: int = 0, class_id: int = 0
    ) -> AdmissionTicket:
        """Queue a job for admission; returns a ticket whose event fires when
        the job may start on ``ticket.stations``."""
        if not 1 <= width <= len(self.stations):
            raise ValueError(
                f"job width must be in [1, {len(self.stations)}], got {width!r}"
            )
        self._seq += 1
        ticket = AdmissionTicket(
            record=record,
            width=int(width),
            priority=int(priority),
            class_id=int(class_id),
            event=Event(self.env),
            seq=self._seq,
            process=self.env.active_process,
        )
        self.queue.append(ticket)
        self.policy.order_queue(self.queue)
        self.log.append(
            AdmissionEvent(
                time=self.env.now,
                kind="arrive",
                job_id=record.job_id,
                width=ticket.width,
                priority=ticket.priority,
            )
        )
        self._dispatch()
        return ticket

    def release(self, record) -> None:
        """Return a completed job's stations and admit whoever is next."""
        job = self.running.pop(record.job_id)
        self.free.extend(job.stations)
        self.free.sort()
        self.log.append(
            AdmissionEvent(
                time=self.env.now,
                kind="release",
                job_id=record.job_id,
                width=job.width,
                priority=job.ticket.priority,
                stations=job.stations,
            )
        )
        self._dispatch()

    # -- dispatch machinery -------------------------------------------------

    def _dispatch(self) -> None:
        while True:
            pick = self.policy.select(self)
            if pick is None:
                break
            self._admit(pick)
        plan = self.policy.preemption_plan(self)
        if plan is not None:
            head, victims = plan
            for victim in victims:
                self._preempt(victim, by=head)
            self._admit(head)
            while True:
                pick = self.policy.select(self)
                if pick is None:
                    break
                self._admit(pick)
        # Work conservation: stations can never all idle while jobs wait
        # (any validated width fits an empty cluster, so some job must run).
        assert not (self.queue and not self.running), (
            "admission stalled with an empty cluster and a non-empty queue"
        )

    def _admit(self, ticket: AdmissionTicket) -> None:
        if ticket.width > len(self.free):  # pragma: no cover - policy bug guard
            raise RuntimeError(
                f"policy {self.policy.name!r} admitted a width-{ticket.width} "
                f"job with only {len(self.free)} stations free"
            )
        self.queue.remove(ticket)
        allocated = tuple(self.free[: ticket.width])
        del self.free[: ticket.width]
        ticket.stations = allocated
        self.running[ticket.record.job_id] = _RunningJob(
            ticket=ticket,
            stations=allocated,
            admitted_at=self.env.now,
            estimate=self.estimate(ticket),
        )
        self.log.append(
            AdmissionEvent(
                time=self.env.now,
                kind="admit",
                job_id=ticket.record.job_id,
                width=ticket.width,
                priority=ticket.priority,
                stations=allocated,
            )
        )
        ticket.event.succeed(ticket)

    def _preempt(self, victim: _RunningJob, by: AdmissionTicket) -> None:
        """Kill-and-requeue one running job (restart semantics).

        Every live parallel-task process on the victim's stations is
        interrupted with an :class:`AdmissionPreemption` cause — the
        workstation re-raises it, the task dies (pre-defused: its failure is
        already handled here) and the failure propagates through the
        scheduling policy's join into the job process, whose wrapper requeues
        the job.  A victim whose tasks all finished in this very event step
        has no task processes left to fail, so its job process is interrupted
        directly.
        """
        record = victim.ticket.record
        cause = AdmissionPreemption(
            job_id=record.job_id,
            preempted_by=by.record.job_id,
            time=self.env.now,
        )
        killed = 0
        for index in victim.stations:
            cpu = self.stations[index].cpu
            for request in list(cpu.users) + list(cpu.queue):
                process = request.process
                if (
                    request.priority == TASK_PRIORITY
                    and process is not None
                    and process.is_alive
                ):
                    process.interrupt(cause)
                    process.defused = True
                    killed += 1
        if killed == 0:
            # All tasks completed at this instant but the job process has not
            # resumed yet: deliver the preemption to the job process itself.
            process = victim.ticket.process
            if process is not None and process.is_alive:
                process.interrupt(cause)
        del self.running[record.job_id]
        self.free.extend(victim.stations)
        self.free.sort()
        self.log.append(
            AdmissionEvent(
                time=self.env.now,
                kind="preempt",
                job_id=record.job_id,
                width=victim.width,
                priority=victim.ticket.priority,
                stations=victim.stations,
            )
        )
