"""The PVM-like virtual machine: hosts, task spawning and message passing.

This is the reproduction's substitute for the PVM package the paper used for
its experimental validation (Section 4).  It offers the same programming model
in simulated time:

* a :class:`VirtualMachine` is configured with a number of *hosts*
  (non-dedicated workstations from :mod:`repro.cluster`, each with its own
  owner interfering at preemptive priority);
* *tasks* are spawned onto hosts and identified by task ids (tids);
* tasks communicate through typed :class:`~repro.pvm.messages.MessageBuffer`
  objects sent with a tag and received selectively by source/tag, with
  transfer times charged by :class:`~repro.pvm.network.NetworkModel`;
* a task performs CPU work with ``ctx.compute(demand)``, which runs on the
  host's preemptible CPU at low ("niced") priority — exactly how the paper's
  parallel tasks yield to workstation owners.

Programs are ordinary generator functions taking a :class:`PvmContext` as
their first argument; ``yield from`` composes the context's primitives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional, Sequence

from ..cluster.owner import OwnerBehavior
from ..cluster.workstation import Workstation
from ..core.params import OwnerSpec
from ..desim import Environment, Process, Store, StreamRegistry
from .messages import ANY_SOURCE, ANY_TAG, Message, MessageBuffer
from .network import NetworkModel

__all__ = ["PvmError", "TaskInfo", "PvmContext", "VirtualMachine"]


class PvmError(RuntimeError):
    """Raised for invalid virtual-machine operations (unknown tid, bad host, ...)."""


@dataclass
class TaskInfo:
    """Book-keeping record for one spawned task."""

    tid: int
    host: int
    parent_tid: Optional[int]
    program_name: str
    spawned_at: float
    process: Process
    finished_at: float = float("nan")

    @property
    def finished(self) -> bool:
        return self.process.triggered

    @property
    def exit_value(self) -> Any:
        if not self.process.triggered:
            raise PvmError(f"task {self.tid} has not finished yet")
        return self.process.value


class PvmContext:
    """Per-task handle exposing the PVM-style API inside a program."""

    def __init__(self, vm: "VirtualMachine", tid: int, host: int, parent_tid: Optional[int]) -> None:
        self.vm = vm
        self.tid = tid
        self.host = host
        self.parent_tid = parent_tid
        self._pending: list[Message] = []

    # -- identity / clock ---------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (the task's system clock)."""
        return self.vm.env.now

    def mytid(self) -> int:
        """This task's id (``pvm_mytid``)."""
        return self.tid

    def parent(self) -> Optional[int]:
        """The spawning task's id, or ``None`` for the root task (``pvm_parent``)."""
        return self.parent_tid

    def config(self) -> tuple[int, int]:
        """``(number of hosts, number of live tasks)`` — a small ``pvm_config``."""
        return self.vm.num_hosts, len(self.vm.live_tasks())

    # -- computation ---------------------------------------------------------
    def compute(self, demand: float) -> Generator:
        """Perform ``demand`` units of CPU work on this task's host.

        The work runs at low priority on the host's preemptive CPU, so any
        owner activity suspends it; the returned :class:`TaskExecution` record
        carries the start/end times and the number of preemptions suffered.
        """
        workstation = self.vm.host(self.host)
        execution = yield from workstation.execute_task(demand)
        return execution

    def delay(self, duration: float) -> Generator:
        """Sleep for ``duration`` simulated time units without using the CPU."""
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration!r}")
        yield self.vm.env.timeout(duration)

    # -- task management -----------------------------------------------------
    def spawn(
        self,
        program: Callable[..., Generator],
        *args: Any,
        host: Optional[int] = None,
        **kwargs: Any,
    ) -> Generator:
        """Spawn a child task running ``program(ctx, *args, **kwargs)``.

        Charges the configured spawn overhead to the *calling* task (spawning
        is not free in PVM either), then registers and starts the child.
        Returns the child's tid.
        """
        if self.vm.spawn_overhead > 0:
            yield self.vm.env.timeout(self.vm.spawn_overhead)
        tid = self.vm.spawn(program, *args, host=host, parent_tid=self.tid, **kwargs)
        return tid

    # -- messaging ------------------------------------------------------------
    def send(
        self,
        destination: int,
        buffer: MessageBuffer,
        tag: int = 0,
    ) -> Generator:
        """Send a packed buffer to ``destination`` with ``tag`` (``pvm_send``).

        The transfer time (latency + size / bandwidth) is charged to the
        sender, after which the message is deposited in the destination task's
        mailbox.  Messages between tasks on the same host are delivered
        immediately, as PVM does for local communication.
        """
        if not isinstance(buffer, MessageBuffer):
            raise TypeError(f"send expects a MessageBuffer, got {type(buffer).__name__}")
        dest_info = self.vm.task_info(destination)
        same_host = dest_info.host == self.host
        sent_at = self.now
        yield from self.vm.network.transmit(buffer.nbytes, same_host=same_host)
        message = Message(
            source=self.tid,
            destination=destination,
            tag=tag,
            buffer=buffer.copy(),
            sent_at=sent_at,
            delivered_at=self.now,
        )
        yield self.vm.mailbox(destination).put(message)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """Blocking selective receive (``pvm_recv``).

        Returns the oldest message matching ``source`` and ``tag`` (either may
        be the wildcard ``ANY_SOURCE`` / ``ANY_TAG``); non-matching messages
        are retained for later receives in arrival order.
        """
        for i, pending in enumerate(self._pending):
            if pending.matches(source, tag):
                return self._pending.pop(i)
        mailbox = self.vm.mailbox(self.tid)
        while True:
            message = yield mailbox.get()
            if message.matches(source, tag):
                return message
            self._pending.append(message)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """Non-blocking check whether a matching message is available (``pvm_probe``)."""
        if any(m.matches(source, tag) for m in self._pending):
            return True
        mailbox = self.vm.mailbox(self.tid)
        return any(m.matches(source, tag) for m in mailbox.items)

    def broadcast(self, destinations: Sequence[int], buffer: MessageBuffer, tag: int = 0) -> Generator:
        """Send the same buffer to every tid in ``destinations`` (``pvm_mcast``)."""
        for destination in destinations:
            yield from self.send(destination, buffer, tag)


class VirtualMachine:
    """A PVM-style virtual machine over a cluster of non-dedicated workstations."""

    def __init__(
        self,
        num_hosts: int,
        owner: OwnerSpec | OwnerBehavior | None = None,
        *,
        seed: int = 0,
        spawn_overhead: float = 0.0,
        network_latency: float = 0.001,
        network_bandwidth: float = 1_250_000.0,
        shared_medium: bool = False,
        owner_demand_kind: str = "deterministic",
        owner_demand_kwargs: dict | None = None,
    ) -> None:
        if num_hosts < 1:
            raise ValueError(f"num_hosts must be >= 1, got {num_hosts!r}")
        if spawn_overhead < 0:
            raise ValueError(f"spawn_overhead must be >= 0, got {spawn_overhead!r}")
        self.env = Environment()
        self.streams = StreamRegistry(seed)
        self.spawn_overhead = spawn_overhead
        self.network = NetworkModel(
            self.env,
            latency=network_latency,
            bytes_per_time_unit=network_bandwidth,
            shared_medium=shared_medium,
        )
        if owner is None:
            owner = OwnerSpec(demand=10.0, utilization=0.0)
        if isinstance(owner, OwnerSpec):
            behavior = OwnerBehavior.from_spec(
                owner, owner_demand_kind, **(owner_demand_kwargs or {})
            )
        else:
            behavior = owner
        self._hosts: list[Workstation] = []
        for index in range(num_hosts):
            station = Workstation(
                self.env, index, behavior, self.streams.stream(f"owner-{index}")
            )
            station.start_owner()
            self._hosts.append(station)
        self._tasks: dict[int, TaskInfo] = {}
        self._mailboxes: dict[int, Store] = {}
        self._contexts: dict[int, PvmContext] = {}
        self._tid_counter = itertools.count(start=1)
        self._round_robin = itertools.cycle(range(num_hosts))

    # -- topology -------------------------------------------------------------
    @property
    def num_hosts(self) -> int:
        return len(self._hosts)

    @property
    def hosts(self) -> Sequence[Workstation]:
        return tuple(self._hosts)

    def host(self, index: int) -> Workstation:
        """The workstation behind host ``index``."""
        if not 0 <= index < self.num_hosts:
            raise PvmError(
                f"host index {index} out of range (machine has {self.num_hosts} hosts)"
            )
        return self._hosts[index]

    def measured_owner_utilizations(self) -> list[float]:
        """Measured owner utilization of every host (simulated ``uptime`` survey)."""
        return [h.measured_owner_utilization() for h in self._hosts]

    # -- tasks -----------------------------------------------------------------
    def spawn(
        self,
        program: Callable[..., Generator],
        *args: Any,
        host: Optional[int] = None,
        parent_tid: Optional[int] = None,
        **kwargs: Any,
    ) -> int:
        """Create a task running ``program(ctx, *args, **kwargs)`` and return its tid.

        ``host=None`` places the task round-robin over the hosts, which is how
        PVM's default spawn placement behaves for a homogeneous machine.
        """
        if host is None:
            host = next(self._round_robin)
        if not 0 <= host < self.num_hosts:
            raise PvmError(
                f"host index {host} out of range (machine has {self.num_hosts} hosts)"
            )
        tid = next(self._tid_counter)
        context = PvmContext(self, tid, host, parent_tid)
        self._mailboxes[tid] = Store(self.env)
        self._contexts[tid] = context
        generator = program(context, *args, **kwargs)
        process = self.env.process(self._wrap(tid, generator))
        info = TaskInfo(
            tid=tid,
            host=host,
            parent_tid=parent_tid,
            program_name=getattr(program, "__name__", repr(program)),
            spawned_at=self.env.now,
            process=process,
        )
        self._tasks[tid] = info
        return tid

    def _wrap(self, tid: int, generator: Generator) -> Generator:
        """Record task completion time around the user program."""
        value = yield from generator
        self._tasks[tid].finished_at = self.env.now
        return value

    def task_info(self, tid: int) -> TaskInfo:
        """Book-keeping record of a task."""
        try:
            return self._tasks[tid]
        except KeyError:
            raise PvmError(f"unknown task id {tid}") from None

    def mailbox(self, tid: int) -> Store:
        """The mailbox (message store) of a task."""
        try:
            return self._mailboxes[tid]
        except KeyError:
            raise PvmError(f"unknown task id {tid}") from None

    def live_tasks(self) -> list[TaskInfo]:
        """Tasks whose program has not returned yet."""
        return [info for info in self._tasks.values() if not info.finished]

    @property
    def tasks(self) -> Sequence[TaskInfo]:
        return tuple(self._tasks.values())

    # -- execution ---------------------------------------------------------------
    def run_program(
        self,
        program: Callable[..., Generator],
        *args: Any,
        host: int = 0,
        **kwargs: Any,
    ) -> Any:
        """Spawn ``program`` as the root task and run until it returns.

        Returns the program's return value.  Owner processes keep cycling in
        the background, so the virtual machine can be reused for further runs
        (the clock keeps advancing monotonically).
        """
        tid = self.spawn(program, *args, host=host, parent_tid=None, **kwargs)
        process = self._tasks[tid].process
        self.env.run(until=process)
        return process.value
