"""A single non-dedicated workstation.

A workstation is one CPU modelled as a preemptive-priority resource shared by

* the workstation *owner* (priority :data:`~repro.cluster.owner.OWNER_PRIORITY`,
  generated by :func:`repro.cluster.owner.owner_process`), and
* at most one *parallel task* at a time (priority
  :data:`~repro.cluster.owner.TASK_PRIORITY`), which is suspended whenever the
  owner wants the CPU and resumes where it left off afterwards.

The workstation records how long the owner kept the CPU busy so experiments
can report measured utilizations (the simulated analogue of the paper's
``uptime`` sampling over two working days).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

import numpy as np

from ..desim import (
    Environment,
    Interrupt,
    Preempted,
    PreemptiveResource,
    Process,
    TimeWeightedMonitor,
)
from .owner import OwnerBehavior, TASK_PRIORITY, owner_process

__all__ = ["TaskExecution", "Workstation"]


@dataclass
class TaskExecution:
    """Record of one parallel task's stay on a workstation."""

    workstation: int
    demand: float
    start_time: float
    end_time: float = float("nan")
    preemptions: int = 0

    @property
    def elapsed(self) -> float:
        """Wall-clock (simulated) task execution time, the paper's primary metric."""
        return self.end_time - self.start_time

    @property
    def delay(self) -> float:
        """Time spent waiting for / preempted by owner processes."""
        return self.elapsed - self.demand

    @property
    def finished(self) -> bool:
        return not np.isnan(self.end_time)


class Workstation:
    """One homogeneous workstation with an owner and a preemptible CPU."""

    def __init__(
        self,
        env: Environment,
        index: int,
        owner: OwnerBehavior,
        rng: np.random.Generator,
    ) -> None:
        self.env = env
        self.index = index
        self.owner = owner
        self.rng = rng
        self.cpu = PreemptiveResource(env, capacity=1)
        self.owner_busy = TimeWeightedMonitor(
            name=f"owner-busy[{index}]", initial_value=0.0, start_time=env.now
        )
        self._owner_proc: Optional[Process] = None
        self.executions: list[TaskExecution] = []
        #: Generic observer hook ``tap(kind, sim_time, **details)`` (``None``
        #: by default).  The telemetry layer is wired in by the *backend*
        #: (never imported here, a tier-1 test checks); set it before
        #: :meth:`start_owner` so the owner generator sees it too.  Taps are
        #: pure observers: no randomness, no event reordering.
        self.tap: Callable[..., None] | None = None

    def start_owner(self) -> None:
        """Launch the owner's think/use cycle (idempotent)."""
        if self._owner_proc is None and not self.owner.is_idle:
            self._owner_proc = self.env.process(
                owner_process(
                    self.env,
                    self.cpu,
                    self.owner,
                    self.rng,
                    self.owner_busy,
                    tap=self.tap,
                    station=self.index,
                )
            )

    @property
    def owner_running(self) -> bool:
        """Whether the owner generator has been started and is still alive."""
        return self._owner_proc is not None and self._owner_proc.is_alive

    def measured_owner_utilization(self) -> float:
        """Owner busy fraction observed so far (time-weighted)."""
        self.owner_busy.finalize(self.env.now)
        if self.owner_busy.elapsed <= 0:
            return 0.0
        return self.owner_busy.time_average

    def execute_task(self, demand: float) -> Generator:
        """Process generator running one parallel task of ``demand`` units.

        The task repeatedly acquires the CPU at low priority and works off its
        remaining demand; every owner preemption is absorbed by re-requesting
        the CPU with the remaining work.  The generator's return value is the
        :class:`TaskExecution` record (available as the process's value).
        """
        if demand <= 0:
            raise ValueError(f"task demand must be positive, got {demand!r}")
        record = TaskExecution(
            workstation=self.index, demand=float(demand), start_time=self.env.now
        )
        self.executions.append(record)
        remaining = float(demand)
        while remaining > 0:
            with self.cpu.request(priority=TASK_PRIORITY) as req:
                # The owner can preempt in the very event step that grants the
                # CPU, delivering the Interrupt while this process is still
                # parked at ``yield req`` — so the guard must span the grant,
                # not just the work timeout.  ``started`` doubles as the
                # got-the-CPU flag: preempted at the grant instant means no
                # work was done and ``remaining`` is unchanged.
                started = None
                try:
                    yield req
                    started = self.env.now
                    yield self.env.timeout(remaining)
                    remaining = 0.0
                except Interrupt as exc:
                    if not isinstance(exc.cause, Preempted):
                        # Not the owner borrowing the CPU: an external kill
                        # (e.g. preemptive admission evicting the whole job).
                        # The context manager releases the CPU; re-raise so
                        # the task dies instead of silently resuming.
                        record.end_time = self.env.now
                        raise
                    if started is not None:
                        remaining -= self.env.now - started
                    record.preemptions += 1
                    if self.tap is not None:
                        self.tap(
                            "task-preempted",
                            self.env.now,
                            station=self.index,
                            remaining=remaining,
                        )
        record.end_time = self.env.now
        return record

    def execute_task_step(self, demand: float) -> Generator:
        """Run a task fragment up to the *first* owner preemption.

        Like :meth:`execute_task` but instead of absorbing a preemption by
        re-requesting the CPU, the generator returns control to the caller so
        a scheduling policy can decide where the remainder runs (resume here,
        or migrate to another station).  The return value is
        ``(record, remaining)``: the fragment's :class:`TaskExecution` and the
        unfinished demand (0.0 when the fragment completed).
        """
        if demand <= 0:
            raise ValueError(f"task demand must be positive, got {demand!r}")
        record = TaskExecution(
            workstation=self.index, demand=float(demand), start_time=self.env.now
        )
        self.executions.append(record)
        remaining = float(demand)
        with self.cpu.request(priority=TASK_PRIORITY) as req:
            # Same grant-instant guard as execute_task: a preemption delivered
            # at ``yield req`` counts as a zero-work fragment.
            started = None
            try:
                yield req
                started = self.env.now
                yield self.env.timeout(remaining)
                remaining = 0.0
            except Interrupt as exc:
                if not isinstance(exc.cause, Preempted):
                    # External kill (admission preemption), not the owner:
                    # release the CPU and die — see execute_task.
                    record.end_time = self.env.now
                    raise
                if started is not None:
                    remaining -= self.env.now - started
                record.preemptions += 1
                if self.tap is not None:
                    self.tap(
                        "task-preempted",
                        self.env.now,
                        station=self.index,
                        remaining=remaining,
                    )
        record.end_time = self.env.now
        return record, remaining
