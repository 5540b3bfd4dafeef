"""Flattened state-machine executor for the event-driven cluster model.

:class:`EventKernel` re-implements the process-oriented back-ends —
``event-driven`` (the closed system) and ``open-system`` (a classless job
stream, or moldable job classes space-sharing the cluster under an admission
policy) — as one flat event loop over a :mod:`heapq` heap.  The oracle models
owners, tasks, jobs and sources as Python generator coroutines parked on
:mod:`repro.desim` events; the kernel replaces every coroutine with a small
transition table keyed by an integer event kind, and every event object with
a plain heap tuple.  Nothing else changes: the kernel performs the *same*
floating-point operations in the *same* order on the *same* RNG streams, so
its results are bitwise-identical to the oracle's (pinned by
``tests/test_kernel.py``).

The one entry point, :meth:`EventKernel.run`, reads the *job lifecycle* off
the scenario: how jobs arrive, are admitted and end.  The owner, CPU and
task machinery — owners preempting the tasks of a parallel job on every
workstation — is written once.  A classless job's station subset is all
``W`` stations in order; a space-shared job gets its subset at admission.

Ordering contract (the one of :class:`repro.desim.AgendaEntry`): heap
entries are tuples ``(when, priority, tie, kind, payload, serial)`` ordered
by ``(when, priority, tie)``, with ``URGENT (0) < NORMAL (1)`` and one
monotone tie counter that makes equal ``(when, priority)`` entries FIFO in
scheduling order, so comparisons never reach the payload.  Every oracle
enqueue consumes one tie.  Enqueues whose callbacks can never run (the
oracle's :class:`~repro.desim.resources.Release` completions, and process
terminations nobody waits on) are *elided*: the loop advances ``tie``
without pushing, which keeps every later tie value — and so the full pop
order — aligned with the oracle's counter while skipping guaranteed no-op
pops.

Equivalence contract (how each oracle construct maps):

================================  =========================================
oracle (generators + desim)       kernel (flat loop)
================================  =========================================
``Process`` init event            ``*_INIT`` / ``*_WAKE`` urgent push
``Timeout``                       push at ``now + delay``, NORMAL
``PreemptiveResource`` grant      ``TASK_GRANT`` / ``OWNER_GRANT`` push
owner preempting the task holder  ``TASK_INTERRUPT`` urgent push, then the
                                  owner's grant push (the oracle enqueues
                                  the interrupt in ``_maybe_preempt`` before
                                  ``_dispatch`` succeeds the owner request)
``Release`` completion event      ``tie += 1`` without a push (guaranteed
                                  no-op pop, elided)
process termination, unobserved   ``tie += 1`` likewise
process termination, awaited      ``TASK_EXIT`` / ``JOB_EXIT`` push
``AllOf`` over a job's tasks      ``pending`` countdown -> ``JOB_ALLOF``
================================  =========================================

Stale-event handling replaces the oracle's callback detachment: every task
carries a monotonically increasing ``serial``; ``TASK_GRANT``/``TASK_DONE``
entries embed the serial they were pushed with and are skipped on pop if the
task has since been interrupted or re-granted (lazy deletion — the oracle
pops the same stale events as no-ops after ``Process._resume`` detaches).

Two accounting shortcuts, both output-preserving: per-task preemption /
migration counters are not tracked (no backend result exposes them), and the
owner-busy time-weighted monitor is folded into a running ``area`` per
station (the monitor's ``0.0``-valued updates add exactly ``0.0``).

Owner think-time pre-draw: when a station's think variate draws from the RNG
(``draws_rng``) and its demand variate does not, the think stream is the only
consumer of that station's generator, so the kernel pre-draws think times in
blocks via ``Variate.sample_batch`` — bitwise-identical to sequential scalar
draws (see ``repro.desim.rng``) but amortising the numpy call overhead.
Stations whose demand also draws (or trace replays) fall back to scalar
sampling in the exact interleaved order.

This module deliberately imports no :mod:`repro.desim` generator machinery
(checked by ``tests/test_invariants.py``) and nothing from
:mod:`repro.backends`, whose ``event-kernel`` adapter
(:mod:`repro.backends.event_kernel`) imports it.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Callable

import numpy as np

from ..cluster.admission import (
    EasyBackfillAdmission,
    PriorityAdmission,
    make_admission_policy,
)
from ..cluster.job import balanced_tasks, imbalanced_tasks
from ..cluster.owner import OwnerBehavior
from ..cluster.policies import (
    MigrateOnOwnerArrival,
    SchedulingPolicy,
    SelfScheduling,
    StaticPartition,
    make_policy,
)
from ..core.params import ScenarioSpec
from ..desim.rng import StreamRegistry, make_variate

__all__ = ["EventKernel", "KERNEL_POLICIES"]

#: Scheduling policies the kernel has transition tables for.
KERNEL_POLICIES: tuple[str, ...] = (
    StaticPartition.name,
    SelfScheduling.name,
    MigrateOnOwnerArrival.name,
)

#: Entry priorities, numerically identical to :mod:`repro.desim.events`.
URGENT = 0
NORMAL = 1

# Job lifecycles, read off the scenario by EventKernel.run.
_CLOSED = 0  # no arrivals: num_jobs jobs back to back, one at a time
_CLASSLESS = 1  # a job stream behind a FIFO admission limit
_SPACE = 2  # job classes on station subsets, by admission policy

# Event kinds.  One integer per distinct continuation in the oracle's
# generators.  The owner, task and job kinds serve every lifecycle (the job
# kinds branch on it); the rest belong to one lifecycle each.
_OWNER_INIT = 0
_OWNER_WAKE = 1
_OWNER_GRANT = 2
_OWNER_DONE = 3
_TASK_INIT = 4
_TASK_GRANT = 5
_TASK_DONE = 6
_TASK_INTERRUPT = 7
_TASK_EXIT = 8
_JOB_INIT = 9
_JOB_ALLOF = 10
_JOB_EXIT = 11
# The closed run: its job loop has finished the last job.
_CLOSED_EXIT = 12
# The classless stream: its source and its FIFO admission resource.
_SOURCE_INIT = 13
_SOURCE_WAKE = 14
_SOURCE_EXIT = 15
_ADMIT_GRANT = 16
# The space-shared admission controller and its job sources.
_ADMIT_TICKET = 17  # AdmissionTicket.event succeeded: the job may start
_ADMIT_KILL_TASK = 18  # admission preemption interrupt on one live task
_TASK_FAIL = 19  # a killed task's failed termination (the join's check)
_JOB_ABORT = 20  # the tasks' AllOf failed: requeue the job (restart)
_JOB_KILL = 21  # preemption interrupt on the job process itself
_SRC_OPEN_INIT = 22
_SRC_OPEN_WAKE = 23
_SRC_CLOSED_INIT = 24
_SRC_CLOSED_WAKE = 25
_SRC_EXIT = 26  # one source's termination event
_SRC_ALLOF = 27  # the sources' AllOf succeeded: stop condition #1

# Scheduling-policy transition tables (per-task continuation flavours).
_ROLE_STATIC = 0  # StaticPartition: one task per station, resume in place
_ROLE_WORKER = 1  # SelfScheduling: stations pull equal chunks off one queue
_ROLE_ITEM = 2  # MigrateOnOwnerArrival: remainder migrates on preemption

#: CPU-holder sentinel for "the owner" (tasks are held as their own records).
_OWNER_HOLDER = object()

_INF = float("inf")

#: Think-times pre-drawn per refill of an owner's buffer.
_THINK_BLOCK = 256


class _Task:
    """Flattened state of one task / worker / migration-item process."""

    __slots__ = (
        "att",
        "pos",
        "station",
        "remaining",
        "serial",
        "started",
        "rec_start",
        "first_start",
        "end",
        "frag_count",
    )

    def __init__(self, att: "_Attempt", pos: int, station: int) -> None:
        self.att = att
        self.pos = pos  # position within the job's subset (migration index)
        self.station = station  # global station index (CPU/owner state)
        self.remaining = 0.0
        #: Lazy-deletion stamp; bumped on every grant push / interrupt / kill.
        self.serial = 0
        #: Service start of the current CPU grant (None while waiting).
        self.started: float | None = None
        #: Start of the current execution record (task / chunk / step).
        self.rec_start = 0.0
        #: Start of the first record (self-scheduling / migration aggregate).
        self.first_start: float | None = None
        self.end = 0.0
        #: Completed chunks (self-scheduling; 0 means "no fragments ran").
        self.frag_count = 0


class _Attempt:
    """One execution attempt of a job: its tasks and their AllOf join."""

    __slots__ = (
        "job",
        "tasks",
        "pending",
        "failed",
        "dead",
        "active",
        "chunk",
        "chunks_left",
    )

    def __init__(self, job: "_Job") -> None:
        self.job = job
        self.tasks: list[_Task] = []
        self.pending = 0  # tasks still running (the oracle's AllOf count)
        #: The join failed: a task was killed by admission preemption.
        self.failed = False
        #: The job process detached from this attempt (requeued); any late
        #: join event is a stale no-op, like the oracle's detached AllOf.
        self.dead = False
        self.active: list[int] = []  # migrate policy's per-position item count
        self.chunk = 0.0  # self-scheduling chunk size
        self.chunks_left = 0  # self-scheduling chunks not yet pulled


class _Job:
    """Flattened state of one job across its whole restart chain.

    A classless job runs once on all stations.  A space-shared job gets its
    station subset at admission, and every admission preemption discards
    the running attempt and requeues this same record with its full demand,
    exactly like the oracle's ``run_one_job`` retry loop.
    """

    __slots__ = (
        "index",
        "width",
        "demand",
        "subset",
        "priority",
        "start",
        "seq",
        "serial",
        "att",
        "waiter",
    )

    def __init__(
        self,
        index: int,
        width: int,
        demand: float,
        subset: list[int],
        priority: int = 0,
    ) -> None:
        self.index = index
        self.width = width
        self.demand = demand
        #: Allocated station indices (ascending), empty while queued.
        self.subset = subset
        self.priority = priority
        self.start = 0.0  # closed run: when the job started
        #: Admission-queue arrival order of the *current* request (the
        #: oracle's ``AdmissionTicket.seq``; re-stamped on every requeue).
        self.seq = 0
        #: Lazy-deletion stamp for pending admission tickets (bumped when the
        #: job process is interrupted while parked at its ticket).
        self.serial = 0
        #: The running attempt, ``None`` while queued / parked at a ticket.
        self.att: _Attempt | None = None
        #: Closed-loop source parked on this job's termination (``None`` for
        #: open arrivals).
        self.waiter: _Source | None = None


class _Running:
    """Bookkeeping for one admitted job (the oracle's ``_RunningJob``)."""

    __slots__ = ("job", "stations", "admitted_at", "estimate")

    def __init__(
        self, job: _Job, stations: list[int], admitted_at: float, estimate: float
    ) -> None:
        self.job = job
        self.stations = stations
        self.admitted_at = admitted_at
        #: Ideal interference-adjusted service-time estimate (backfilling).
        self.estimate = estimate


class _Source:
    """One closed-loop source: a think-time variate bound to a job class."""

    __slots__ = ("variate", "class_index")

    def __init__(self, variate, class_index: int) -> None:
        self.variate = variate
        self.class_index = class_index


def _policy_role(policy: SchedulingPolicy) -> tuple[int, int]:
    """Map a policy instance to its kernel transition table (+ chunk count)."""
    if isinstance(policy, StaticPartition):
        return _ROLE_STATIC, 0
    if isinstance(policy, SelfScheduling):
        return _ROLE_WORKER, policy.chunks_per_station
    if isinstance(policy, MigrateOnOwnerArrival):
        return _ROLE_ITEM, 0
    raise ValueError(
        f"the event kernel has no transition table for policy "
        f"{policy.name!r}; supported policies: {list(KERNEL_POLICIES)}"
    )


class EventKernel:
    """Array-based executor shared across the runs of one sweep batch.

    The instance owns the reusable event heap; all per-run state lives in
    locals of the run, so one kernel can be shared across grid points
    (cross-point batching) with every point still drawing from its own
    freshly seeded :class:`StreamRegistry` — results are independent of
    batch composition.

    ``tap`` is the generic observer hook (``None`` by default): any callable
    ``tap(kind, sim_time, **details)``, invoked at each scheduling decision
    (owner arrivals, preemptions, migrations, admissions).  The kernel never
    imports the telemetry layer — the backend wires an installed
    :class:`repro.obs.SimEventTap` in (``tests/test_invariants.py`` checks
    the direction).  Taps observe only: they draw no randomness and reorder
    no events, so a tapped run stays bitwise-identical.
    """

    __slots__ = ("_heap", "tap")

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self.tap: Callable[..., None] | None = None

    def run(self, config, streams: StreamRegistry | None = None) -> tuple:
        """Run one config; its result class's sample fields in declaration order.

        The job lifecycle is read off the scenario.  Without a job-arrival
        process it is the closed system, ``num_jobs`` back-to-back jobs on
        one cluster, and the fields are ``(job_times, task_times,
        measured_owner_utilization)`` of the ``event-driven`` backend's
        :class:`SimulationResult`.  An open scenario yields ``(arrival_times,
        start_times, end_times, demands, widths, class_ids, restarts,
        measured_owner_utilization)`` of the ``open-system`` backend's
        :class:`OpenSystemResult`: a classless stream of ``num_jobs``
        arrivals, each on all ``W`` stations as class 0 and never
        restarted, or moldable job classes space-sharing the cluster.  Each
        is bitwise-equal to the oracle's.  A job class wider than the
        cluster raises ``ValueError``.

        The space-shared lifecycle flattens the ``open-system`` oracle's
        ``_run_space_shared`` — the
        :class:`~repro.cluster.admission.AdmissionController` decision loop
        (queue state, exclusive station-subset allocation, EASY reservation /
        backfill checks, preemptive kill-and-requeue restarts) plus the
        open/closed job sources — into transition tables of the one loop.

        Admission-controller mapping (on top of the module-level contract):

        =====================================  ==============================
        oracle (controller + desim)            kernel (flat loop)
        =====================================  ==============================
        ``ticket.event.succeed``               ``ADMIT_TICKET`` push, stamped
                                               with the job's ``serial``
        ``process.interrupt`` on a task        ``ADMIT_KILL_TASK`` urgent push
        killed task's failed termination       ``TASK_FAIL`` push; first one
                                               fails the join (``JOB_ABORT``)
        ``process.interrupt`` on the job       ``JOB_KILL`` urgent push (all
                                               tasks finished in-instant)
        detached AllOf firing after eviction   ``att.dead`` stale-skip
        source process / sources' AllOf        ``SRC_*`` kinds
        =====================================  ==============================
        """
        cfg = config
        scenario: ScenarioSpec = cfg.effective_scenario
        workstations: int = cfg.workstations
        num_jobs: int = cfg.num_jobs
        imbalance: float = scenario.imbalance
        job_demand: float = cfg.job_demand

        arrivals = scenario.arrivals
        if arrivals is None:
            life = _CLOSED
        else:
            spec = arrivals
            life = _SPACE if spec.is_space_shared else _CLASSLESS
            for job_class in spec.job_classes:
                if job_class.width > workstations:
                    raise ValueError(
                        f"job class {job_class.name!r} requests width "
                        f"{job_class.width} on a {workstations}-station cluster"
                    )
        policy = make_policy(scenario.policy, **dict(scenario.policy_kwargs))
        role, chunks_per_station = _policy_role(policy)

        if streams is None:
            streams = StreamRegistry(cfg.seed)

        heap = self._heap
        heap.clear()
        tie = 0
        now = 0.0
        tap = self.tap  # observer hook, hoisted off the hot path

        # Per-station owner + CPU state (parallel lists indexed by station).
        think_v: list = [None] * workstations
        demand_v: list = [None] * workstations
        owner_rng: list = [None] * workstations
        prebatch = [False] * workstations
        think_buf: list = [()] * workstations
        think_cur = [0] * workstations
        owner_pending = [0.0] * workstations  # demand drawn at the last wake
        busy = [False] * workstations
        busy_start = [0.0] * workstations
        area = [0.0] * workstations  # owner-busy time-weighted area
        util = [0.0] * workstations  # static utilization (migration target order)
        holder: list = [None] * workstations  # None | _OWNER_HOLDER | _Task
        cpu_queue: list[deque] = [deque() for _ in range(workstations)]

        # Owner processes start in station order (oracle: _build_cluster loop).
        for w, station in enumerate(scenario.stations):
            behavior = OwnerBehavior.from_station(station)
            rng = streams.stream(f"owner-{w}")
            util[w] = behavior.utilization
            if behavior.is_idle:
                continue  # Workstation.start_owner never launches idle owners
            think = behavior.think_time
            demand = behavior.demand
            think_v[w] = think
            demand_v[w] = demand
            owner_rng[w] = rng
            # Pre-drawing the think stream is sound only while nothing else
            # draws from this station's generator — i.e. the demand variate
            # is drawless.  Trace replays (SequenceVariate) are drawless
            # themselves, so scalar sampling costs nothing there.
            prebatch[w] = bool(
                getattr(think, "draws_rng", True)
                and hasattr(think, "sample_batch")
                and not getattr(demand, "draws_rng", True)
            )
            heappush(heap, (0.0, URGENT, tie, _OWNER_INIT, w, 0))
            tie += 1
        placement_rng = streams.stream("placement")
        all_stations = list(range(workstations))  # a classless job's subset

        def think_sample(w: int) -> float:
            if prebatch[w]:
                buf = think_buf[w]
                i = think_cur[w]
                if i >= len(buf):
                    buf = think_v[w].sample_batch(owner_rng[w], _THINK_BLOCK).tolist()
                    think_buf[w] = buf
                    i = 0
                think_cur[w] = i + 1
                return buf[i]
            return think_v[w].sample(owner_rng[w])

        def request_cpu(t: _Task) -> None:
            """``cpu.request(priority=TASK_PRIORITY)``: grant if free, else FIFO."""
            nonlocal tie
            w = t.station
            if holder[w] is None:
                holder[w] = t
                t.serial += 1
                heappush(heap, (now, NORMAL, tie, _TASK_GRANT, t, t.serial))
                tie += 1
            else:
                cpu_queue[w].append(t)

        def release_cpu(w: int) -> None:
            """``Release``: dispatch the FIFO head, then the no-op completion."""
            nonlocal tie
            q = cpu_queue[w]
            if q:
                h = q.popleft()
                holder[w] = h
                h.serial += 1
                heappush(heap, (now, NORMAL, tie, _TASK_GRANT, h, h.serial))
                tie += 1
            else:
                holder[w] = None
            tie += 1  # the Release event itself (guaranteed no-op pop)

        def start(job: _Job) -> None:
            """Launch one attempt's task processes (the policy's ``run_job`` head).

            The placement draw happens per *attempt* (oracle: inside the
            retry loop), so a restarted job re-splits with fresh randomness.
            """
            nonlocal tie
            width = job.width
            if imbalance == 0.0:
                demands = balanced_tasks(job.demand, width)
            else:
                demands = imbalanced_tasks(job.demand, width, imbalance, placement_rng)
            att = _Attempt(job)
            job.att = att
            att.pending = width
            if role == _ROLE_WORKER:
                total = float(np.sum(demands))
                num_chunks = chunks_per_station * width
                att.chunk = total / num_chunks
                att.chunks_left = num_chunks
            elif role == _ROLE_ITEM:
                att.active = [1] * width
            tasks = att.tasks
            for pos, station in enumerate(job.subset):
                t = _Task(att, pos, station)
                if role != _ROLE_WORKER:
                    t.remaining = float(demands[pos])
                tasks.append(t)
                heappush(heap, (now, URGENT, tie, _TASK_INIT, t, 0))
                tie += 1

        def end_attempt(t: _Task) -> None:
            """Continuation after a CPU attempt ends (service done or dust).

            Covers the policy-specific tail of the oracle's
            ``execute_task`` / ``worker`` / ``run_item`` generators once the
            current record's remaining work is ``<= 0`` — or, for the
            migration policy, after *any* step (its records are per-step).
            """
            nonlocal tie
            if role == _ROLE_STATIC:
                t.end = now
                heappush(heap, (now, NORMAL, tie, _TASK_EXIT, t, 0))
                tie += 1
                return
            att = t.att
            if role == _ROLE_WORKER:
                if t.frag_count == 0:
                    t.first_start = t.rec_start
                t.frag_count += 1
                t.end = now
                if att.chunks_left > 0:
                    att.chunks_left -= 1
                    t.remaining = att.chunk
                    t.rec_start = now
                    request_cpu(t)
                else:
                    heappush(heap, (now, NORMAL, tie, _TASK_EXIT, t, 0))
                    tie += 1
                return
            # _ROLE_ITEM: one execute_task_step record ended.
            if t.first_start is None:
                t.first_start = t.rec_start
            if t.remaining <= 0:
                t.end = now
                att.active[t.pos] -= 1
                heappush(heap, (now, NORMAL, tie, _TASK_EXIT, t, 0))
                tie += 1
                return
            # Preempted with work left: migrate within the job's subset to the
            # least-utilized idle position (ties by position), else resume.
            active = att.active
            subset = att.job.subset
            cur = t.pos
            best = -1
            best_util = 0.0  # util[subset[best]]
            for i, w in enumerate(subset):
                if i == cur or active[i] > 0:
                    continue
                if best < 0 or util[w] < best_util:
                    best = i
                    best_util = util[w]
            if best >= 0:
                active[cur] -= 1
                active[best] += 1
                t.pos = best
                t.station = subset[best]
                if tap is not None:
                    tap(
                        "task-migrated",
                        now,
                        job=att.job.index,
                        source=subset[cur],
                        target=subset[best],
                        remaining=t.remaining,
                    )
            t.rec_start = now
            request_cpu(t)

        # Lifecycle set-up.  Stream creation order matches the oracle's and
        # is part of the bitwise contract: the closed run creates the
        # owners' streams and ``placement`` only; the classless stream adds
        # ``arrivals`` and ``job-demands``; the space-shared run adds
        # ``job-classes`` and ``think-times`` too, unconditionally (a
        # single-class mix draws nothing from them, but their creation
        # advances the registry).
        if life == _CLOSED:
            next_job = 0
            job_times = np.empty(num_jobs, dtype=np.float64)
            task_times: list[float] = []
            # The job loop's init pop immediately launches job 0 (or exits for
            # num_jobs == 0), exactly the JOB_EXIT continuation — reuse it.
            heappush(heap, (0.0, URGENT, tie, _JOB_EXIT, None, 0))
            tie += 1
        else:
            arrival_rng = streams.stream("arrivals")
            job_demand_rng = streams.stream("job-demands")
            demand_variate = make_variate(
                spec.demand_kind, job_demand, **dict(spec.demand_kwargs)
            )
            arrival_times = np.empty(num_jobs, dtype=np.float64)
            start_times = np.empty(num_jobs, dtype=np.float64)
            end_times = np.empty(num_jobs, dtype=np.float64)
            job_demands = np.empty(num_jobs, dtype=np.float64)
            # A classless job spans all W stations as class 0; the
            # space-shared lifecycle writes each job's own at submission.
            widths = np.full(num_jobs, float(workstations))
            class_ids = np.zeros(num_jobs)
            restarts = np.zeros(num_jobs)
            submitted = 0
            exited = 0
            sources_done = False

        if life == _CLASSLESS:
            mean_gap = spec.mean_interarrival
            admit_cap = spec.max_concurrent_jobs
            admit_users = 0
            admit_queue: deque[_Job] = deque()

            def adm_request(job: _Job) -> None:
                """``run_one_job``'s admission request (a plain FIFO resource)."""
                nonlocal tie, admit_users
                if admit_users < admit_cap:
                    admit_users += 1
                    heappush(heap, (now, NORMAL, tie, _ADMIT_GRANT, job, 0))
                    tie += 1
                else:
                    admit_queue.append(job)
                    if tap is not None:
                        tap(
                            "job-queued",
                            now,
                            job=job.index,
                            queue_depth=len(admit_queue),
                        )

            def adm_release(job: _Job) -> None:
                """Admission release: hand the slot to the FIFO head."""
                nonlocal tie, admit_users
                if admit_queue:
                    nxt = admit_queue.popleft()
                    heappush(heap, (now, NORMAL, tie, _ADMIT_GRANT, nxt, 0))
                    tie += 1
                else:
                    admit_users -= 1
                tie += 1  # the admission Release event (no-op pop)

            heappush(heap, (0.0, URGENT, tie, _SOURCE_INIT, None, 0))
            tie += 1
        elif life == _SPACE:
            classes = spec.job_classes
            class_rng = streams.stream("job-classes")
            think_rng = streams.stream("think-times")
            admission = make_admission_policy(
                spec.admission_policy, **dict(spec.admission_kwargs)
            )
            # Flatten the policy object into the transition tables' scalars.
            adm_backfill = isinstance(admission, EasyBackfillAdmission)
            adm_priority = isinstance(admission, PriorityAdmission)
            preemptive = adm_priority and admission.preemptive
            runtime_factor = admission.runtime_factor if adm_backfill else 0.0
            mean_util = scenario.mean_utilization

            open_indices = spec.open_class_indices
            open_index_array = np.array(open_indices, dtype=np.int64)
            weights = np.array(
                [classes[index].weight for index in open_indices], dtype=np.float64
            )
            if weights.size:
                weights /= weights.sum()
            mean_gap = spec.mean_interarrival if open_indices else 0.0

            budget = num_jobs

            # Admission-controller state, flattened: a sorted free-station
            # list, the waiting queue (policy order), and insertion-ordered
            # running records (EASY's release sort relies on dict insertion
            # order plus sort stability, exactly like the oracle's
            # ``running.values()``).
            adm_free = list(range(workstations))
            adm_queue: list[_Job] = []
            adm_running: dict[int, _Running] = {}
            adm_seq = 0

            def estimate_service(job: _Job) -> float:
                # The oracle's estimate_service lambda, verbatim float ops.
                return job.demand / (job.width * (1.0 - mean_util))

            def adm_select() -> _Job | None:
                """``AdmissionPolicy.select`` over the flattened queue state."""
                if not adm_queue:
                    return None
                head = adm_queue[0]
                free = len(adm_free)
                if head.width <= free:
                    return head
                if not adm_backfill:
                    return None  # FCFS / priority: head-of-line blocking
                # EASY: the head's reservation (shadow time + spare width),
                # then the backfill scan over the rest of the queue.
                releases = sorted(
                    adm_running.values(),
                    key=lambda run: run.admitted_at + runtime_factor * run.estimate,
                )
                shadow = now
                extra = free
                available = free
                for run in releases:
                    available += len(run.stations)
                    if available >= head.width:
                        shadow = run.admitted_at + runtime_factor * run.estimate
                        if shadow < now:
                            shadow = now
                        extra = available - head.width
                        break
                for job in adm_queue[1:]:
                    if job.width > free:
                        continue
                    finish = now + runtime_factor * estimate_service(job)
                    if finish <= shadow or job.width <= extra:
                        return job
                return None

            def adm_admit(job: _Job) -> None:
                nonlocal tie
                adm_queue.remove(job)
                allocated = adm_free[: job.width]
                del adm_free[: job.width]
                job.subset = allocated
                adm_running[job.index] = _Running(
                    job, allocated, now, estimate_service(job)
                )
                # ticket.event.succeed(ticket): one enqueue, the ADMIT_TICKET pop.
                heappush(heap, (now, NORMAL, tie, _ADMIT_TICKET, job, job.serial))
                tie += 1

            def adm_preempt(run: _Running) -> None:
                """Kill-and-requeue one running job (restart semantics).

                Interrupt enqueues mirror the oracle's per-station scan of
                ``list(cpu.users) + list(cpu.queue)``: the task holder first
                (owners are skipped — their requests carry OWNER_PRIORITY),
                then the queued tasks in FIFO order.  A victim with no live
                task left (all finished in this very instant) gets the
                interrupt on its job process instead.
                """
                nonlocal tie
                killed = 0
                for w in run.stations:
                    h = holder[w]
                    if h is not None and h is not _OWNER_HOLDER:
                        heappush(heap, (now, URGENT, tie, _ADMIT_KILL_TASK, h, 0))
                        tie += 1
                        killed += 1
                    for t in cpu_queue[w]:
                        heappush(heap, (now, URGENT, tie, _ADMIT_KILL_TASK, t, 0))
                        tie += 1
                        killed += 1
                if killed == 0:
                    heappush(heap, (now, URGENT, tie, _JOB_KILL, run.job, 0))
                    tie += 1
                del adm_running[run.job.index]
                adm_free.extend(run.stations)
                adm_free.sort()

            def adm_dispatch() -> None:
                """``AdmissionController._dispatch``: select loop, then the plan."""
                while True:
                    pick = adm_select()
                    if pick is None:
                        break
                    adm_admit(pick)
                if preemptive and adm_queue:
                    head = adm_queue[0]
                    victims = sorted(
                        (
                            run
                            for run in adm_running.values()
                            if run.job.priority < head.priority
                        ),
                        key=lambda run: (
                            run.job.priority,
                            -run.admitted_at,
                            -run.job.seq,
                        ),
                    )
                    reclaimed = len(adm_free)
                    plan: list[_Running] = []
                    for run in victims:
                        plan.append(run)
                        reclaimed += len(run.stations)
                        if reclaimed >= head.width:
                            break
                    else:
                        plan = []  # reclaiming everything still won't fit
                    if plan:
                        for run in plan:
                            adm_preempt(run)
                        adm_admit(head)
                        while True:
                            pick = adm_select()
                            if pick is None:
                                break
                            adm_admit(pick)
                # Work conservation: stations never all idle while jobs wait.
                assert not (adm_queue and not adm_running), (
                    "admission stalled with an empty cluster and a non-empty queue"
                )

            def adm_request(job: _Job) -> None:
                nonlocal adm_seq
                adm_seq += 1
                job.seq = adm_seq
                adm_queue.append(job)
                if adm_priority:
                    adm_queue.sort(key=lambda j: (-j.priority, j.seq))
                adm_dispatch()
                if tap is not None and not job.subset:
                    tap("job-queued", now, job=job.index, queue_depth=len(adm_queue))

            def adm_release(job: _Job) -> None:
                run = adm_running.pop(job.index)
                adm_free.extend(run.stations)
                adm_free.sort()
                adm_dispatch()

            def requeue(job: _Job) -> None:
                """Discard the running attempt and re-request admission."""
                att = job.att
                if att is not None:
                    att.dead = True
                    job.att = None
                job.subset = []
                restarts[job.index] += 1.0
                if tap is not None:
                    tap(
                        "job-restarted",
                        now,
                        job=job.index,
                        restarts=int(restarts[job.index]),
                    )
                adm_request(job)  # requeue with the full demand (restart)

            def take_budget() -> bool:
                nonlocal budget
                if budget <= 0:
                    return False
                budget -= 1
                return True

            def submit(class_index: int) -> _Job:
                nonlocal tie, submitted
                demand = float(demand_variate.sample(job_demand_rng))
                while demand <= 0.0:
                    demand = float(demand_variate.sample(job_demand_rng))
                job_class = classes[class_index]
                job = _Job(
                    submitted, job_class.width, demand, [], job_class.priority
                )
                arrival_times[job.index] = now
                job_demands[job.index] = demand
                widths[job.index] = float(job_class.width)
                class_ids[job.index] = float(class_index)
                submitted += 1
                heappush(heap, (now, URGENT, tie, _JOB_INIT, job, 0))
                tie += 1
                return job

            # Sources start after the owners, open first (oracle process
            # order).  Every class mix has at least one source: a class is
            # open, or closed with a positive population.
            sources_left = 0
            if open_indices:
                heappush(heap, (0.0, URGENT, tie, _SRC_OPEN_INIT, None, 0))
                tie += 1
                sources_left += 1
            for class_index in spec.closed_class_indices:
                job_class = classes[class_index]
                for _member in range(job_class.population):
                    source = _Source(
                        make_variate(
                            job_class.think_time_kind,
                            job_class.think_time,
                            **dict(job_class.think_time_kwargs),
                        ),
                        class_index,
                    )
                    heappush(heap, (0.0, URGENT, tie, _SRC_CLOSED_INIT, source, 0))
                    tie += 1
                    sources_left += 1
            multi_source = sources_left > 1

        # ---- dispatch loop (branches roughly frequency-ordered) ----
        while True:
            entry = heappop(heap)
            now = entry[0]
            kind = entry[3]
            if kind == _TASK_GRANT:
                t = entry[4]
                if entry[5] != t.serial:
                    continue  # stale grant (interrupted / killed meanwhile)
                t.started = now
                heappush(
                    heap, (now + t.remaining, NORMAL, tie, _TASK_DONE, t, t.serial)
                )
                tie += 1
            elif kind == _TASK_DONE:
                t = entry[4]
                if entry[5] != t.serial:
                    continue  # stale completion (interrupted mid-service)
                t.remaining = 0.0
                t.started = None
                release_cpu(t.station)
                end_attempt(t)
            elif kind == _OWNER_WAKE:
                w = entry[4]
                demand = demand_v[w].sample(owner_rng[w])
                if demand < 0.0:
                    demand = 0.0  # max(0.0, sample)
                if demand == 0.0:
                    think = think_sample(w)
                    if think == _INF:
                        tie += 1  # owner process returns, unobserved
                    else:
                        heappush(
                            heap,
                            (
                                now + (think if think > 0.0 else 0.0),
                                NORMAL,
                                tie,
                                _OWNER_WAKE,
                                w,
                                0,
                            ),
                        )
                        tie += 1
                    continue
                owner_pending[w] = demand
                if tap is not None:
                    tap("owner-arrival", now, station=w, demand=demand)
                h = holder[w]
                if h is not None:
                    # Preempt the task holder: the oracle enqueues the
                    # victim's interrupt (URGENT) before dispatching the
                    # owner's grant (NORMAL).
                    h.serial += 1
                    heappush(heap, (now, URGENT, tie, _TASK_INTERRUPT, h, 0))
                    tie += 1
                holder[w] = _OWNER_HOLDER
                heappush(heap, (now, NORMAL, tie, _OWNER_GRANT, w, 0))
                tie += 1
            elif kind == _OWNER_GRANT:
                w = entry[4]
                busy[w] = True
                busy_start[w] = now
                heappush(
                    heap, (now + owner_pending[w], NORMAL, tie, _OWNER_DONE, w, 0)
                )
                tie += 1
            elif kind == _OWNER_DONE:
                w = entry[4]
                area[w] += now - busy_start[w]
                busy[w] = False
                release_cpu(w)
                think = think_sample(w)
                if think == _INF:
                    tie += 1  # owner process returns, unobserved
                else:
                    heappush(
                        heap,
                        (
                            now + (think if think > 0.0 else 0.0),
                            NORMAL,
                            tie,
                            _OWNER_WAKE,
                            w,
                            0,
                        ),
                    )
                    tie += 1
            elif kind == _TASK_INTERRUPT:
                t = entry[4]
                if t.started is not None:
                    t.remaining -= now - t.started
                    t.started = None
                if tap is not None:
                    tap(
                        "task-preempted",
                        now,
                        job=t.att.job.index,
                        station=t.station,
                        remaining=t.remaining,
                    )
                tie += 1  # Release of the interrupted request (no-op pop)
                if role == _ROLE_ITEM:
                    end_attempt(t)  # per-step record: always ends here
                elif t.remaining > 0:
                    request_cpu(t)  # re-request behind the owner, FIFO
                else:
                    end_attempt(t)  # dust: float rounding finished the work
            elif kind == _TASK_INIT:
                t = entry[4]
                if role == _ROLE_WORKER:
                    att = t.att
                    if att.chunks_left <= 0:
                        # Chunk queue already drained: worker exits at birth.
                        heappush(heap, (now, NORMAL, tie, _TASK_EXIT, t, 0))
                        tie += 1
                        continue
                    att.chunks_left -= 1
                    t.remaining = att.chunk
                t.rec_start = now
                request_cpu(t)
            elif kind == _TASK_EXIT:
                att = entry[4].att
                att.pending -= 1
                if att.pending == 0 and not att.failed:
                    # The join fires even for a dead attempt whose tasks all
                    # finished (the oracle's detached AllOf still succeeds);
                    # the JOB_ALLOF pop skips it.  A *failed* join never
                    # re-fires: the AllOf is already triggered.
                    heappush(heap, (now, NORMAL, tie, _JOB_ALLOF, att, 0))
                    tie += 1
            elif kind == _JOB_ALLOF:
                att = entry[4]
                if att.dead:
                    continue  # stale join: the job was evicted this instant
                job = att.job
                if life == _CLOSED:
                    end = -_INF
                    if role == _ROLE_STATIC:
                        for t in att.tasks:
                            task_times.append(t.end - t.rec_start)
                            if t.end > end:
                                end = t.end
                    elif role == _ROLE_WORKER:
                        for t in att.tasks:
                            if t.frag_count == 0:
                                continue  # station never pulled a chunk
                            task_times.append(t.end - t.first_start)
                            if t.end > end:
                                end = t.end
                    else:
                        for t in att.tasks:
                            s = t.first_start
                            task_times.append(
                                t.end - (s if s is not None else 0.0)
                            )
                            if t.end > end:
                                end = t.end
                    job_times[job.index] = end - job.start
                else:
                    end_times[job.index] = now
                    adm_release(job)
                heappush(heap, (now, NORMAL, tie, _JOB_EXIT, job, 0))
                tie += 1
            elif kind == _JOB_EXIT:
                if life == _CLOSED:
                    # The closed job loop: next job, or the loop exits.
                    if next_job < num_jobs:
                        job = _Job(next_job, workstations, job_demand, all_stations)
                        next_job += 1
                        heappush(heap, (now, URGENT, tie, _JOB_INIT, job, 0))
                    else:
                        heappush(heap, (now, NORMAL, tie, _CLOSED_EXIT, None, 0))
                    tie += 1
                    continue
                job = entry[4]
                src = job.waiter
                if src is not None:
                    # Resume the parked closed-loop source: next think time.
                    job.waiter = None
                    gap = float(src.variate.sample(think_rng))
                    heappush(
                        heap,
                        (now + max(gap, 0.0), NORMAL, tie, _SRC_CLOSED_WAKE, src, 0),
                    )
                    tie += 1
                exited += 1
                if sources_done and exited >= submitted:
                    break  # the drain AllOf fires: simulation over
            elif kind == _JOB_INIT:
                job = entry[4]
                if life == _CLOSED:
                    job.start = now
                    start(job)
                else:
                    adm_request(job)  # run_one_job's first admission request
            elif kind == _ADMIT_GRANT:
                job = entry[4]
                if tap is not None:
                    tap("job-admitted", now, job=job.index)
                start_times[job.index] = now
                start(job)
            elif kind == _SOURCE_WAKE:
                j = entry[4]
                demand = float(demand_variate.sample(job_demand_rng))
                while demand <= 0.0:
                    demand = float(demand_variate.sample(job_demand_rng))
                arrival_times[j] = now
                job_demands[j] = demand
                submitted += 1
                job = _Job(j, workstations, demand, all_stations)
                heappush(heap, (now, URGENT, tie, _JOB_INIT, job, 0))
                tie += 1
                j += 1
                if j < num_jobs:
                    gap = spec.interarrival(j)
                    if gap is None:
                        gap = float(arrival_rng.exponential(mean_gap))
                    heappush(heap, (now + gap, NORMAL, tie, _SOURCE_WAKE, j, 0))
                else:
                    heappush(heap, (now, NORMAL, tie, _SOURCE_EXIT, None, 0))
                tie += 1
            elif kind == _SOURCE_EXIT:
                sources_done = True
                if exited >= submitted:
                    break  # no in-flight jobs left to drain
            elif kind == _SOURCE_INIT:
                if num_jobs <= 0:
                    heappush(heap, (now, NORMAL, tie, _SOURCE_EXIT, None, 0))
                else:
                    gap = spec.interarrival(0)
                    if gap is None:
                        gap = float(arrival_rng.exponential(mean_gap))
                    heappush(heap, (now + gap, NORMAL, tie, _SOURCE_WAKE, 0, 0))
                tie += 1
            elif kind == _ADMIT_TICKET:
                job = entry[4]
                if entry[5] != job.serial:
                    continue  # evicted while parked at this very ticket
                if tap is not None:
                    tap(
                        "job-admitted",
                        now,
                        job=job.index,
                        width=job.width,
                        stations=tuple(job.subset),
                    )
                start_times[job.index] = now
                start(job)
            elif kind == _ADMIT_KILL_TASK:
                t = entry[4]
                # The interrupt detaches the task from any pending grant /
                # completion (bumped at *pop* time: a grant legitimately
                # issued to this dying task during an earlier kill's release
                # must still be invalidated).
                t.serial += 1
                w = t.station
                if holder[w] is t:
                    release_cpu(w)  # context-manager release: grant next
                else:
                    cpu_queue[w].remove(t)  # queued request cancelled
                    tie += 1  # its Release completion (no-op pop)
                heappush(heap, (now, NORMAL, tie, _TASK_FAIL, t, 0))
                tie += 1  # the failed termination
            elif kind == _TASK_FAIL:
                att = entry[4].att
                if att.failed:
                    continue  # the join already failed: triggered, no-op
                att.failed = True
                heappush(heap, (now, NORMAL, tie, _JOB_ABORT, att, 0))
                tie += 1  # the AllOf's failure
            elif kind == _JOB_ABORT:
                requeue(entry[4].job)
            elif kind == _JOB_KILL:
                job = entry[4]
                job.serial += 1  # a pending admission ticket goes stale
                requeue(job)
            elif kind == _SRC_OPEN_WAKE:
                index = entry[4]
                if len(open_indices) == 1:
                    class_index = open_indices[0]
                else:
                    class_index = int(class_rng.choice(open_index_array, p=weights))
                submit(class_index)
                if take_budget():
                    gap = spec.interarrival(index)
                    if gap is None:
                        gap = float(arrival_rng.exponential(mean_gap))
                    heappush(
                        heap, (now + gap, NORMAL, tie, _SRC_OPEN_WAKE, index + 1, 0)
                    )
                else:
                    heappush(heap, (now, NORMAL, tie, _SRC_EXIT, None, 0))
                tie += 1
            elif kind == _SRC_CLOSED_WAKE:
                src = entry[4]
                if take_budget():
                    submit(src.class_index).waiter = src  # park on the job
                else:
                    heappush(heap, (now, NORMAL, tie, _SRC_EXIT, None, 0))
                    tie += 1
            elif kind == _SRC_OPEN_INIT:
                if take_budget():
                    gap = spec.interarrival(0)
                    if gap is None:
                        gap = float(arrival_rng.exponential(mean_gap))
                    heappush(heap, (now + gap, NORMAL, tie, _SRC_OPEN_WAKE, 1, 0))
                else:
                    heappush(heap, (now, NORMAL, tie, _SRC_EXIT, None, 0))
                tie += 1
            elif kind == _SRC_CLOSED_INIT:
                src = entry[4]
                gap = float(src.variate.sample(think_rng))
                heappush(
                    heap, (now + max(gap, 0.0), NORMAL, tie, _SRC_CLOSED_WAKE, src, 0)
                )
                tie += 1
            elif kind == _SRC_EXIT:
                sources_left -= 1
                if sources_left == 0:
                    if multi_source:
                        # Last termination: the sources' AllOf succeeds.
                        heappush(heap, (now, NORMAL, tie, _SRC_ALLOF, None, 0))
                        tie += 1
                    else:
                        sources_done = True
                        if exited >= submitted:
                            break  # no in-flight jobs left to drain
            elif kind == _SRC_ALLOF:
                sources_done = True
                if exited >= submitted:
                    break
            elif kind == _OWNER_INIT:
                w = entry[4]
                think = think_sample(w)
                if think == _INF:
                    tie += 1  # owner process returns immediately, unobserved
                else:
                    heappush(
                        heap,
                        (
                            now + (think if think > 0.0 else 0.0),
                            NORMAL,
                            tie,
                            _OWNER_WAKE,
                            w,
                            0,
                        ),
                    )
                    tie += 1
            else:  # _CLOSED_EXIT
                break

        heap.clear()

        # Finalize the owner-busy monitors at the stop time (oracle:
        # measured_owner_utilization() -> finalize(env.now) / time_average).
        measured = []
        for w in range(workstations):
            a = area[w]
            if busy[w]:
                a += now - busy_start[w]
            measured.append(0.0 if now <= 0 else a / now)
        measured_util = float(np.mean(measured))

        if life == _CLOSED:
            return (
                job_times,
                np.asarray(task_times, dtype=np.float64),
                measured_util,
            )
        return (
            arrival_times,
            start_times,
            end_times,
            job_demands,
            widths,
            class_ids,
            restarts,
            measured_util,
        )
