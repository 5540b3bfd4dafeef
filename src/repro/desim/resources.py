"""Shared resources for the simulation kernel.

Three resource flavours are provided, mirroring what the paper's CSIM model
needs:

* :class:`Resource` — a plain FIFO server with fixed capacity,
* :class:`PriorityResource` — requests carry a priority (lower value = more
  important) and jump the waiting queue accordingly,
* :class:`PreemptiveResource` — in addition, an arriving high-priority request
  kicks a lower-priority user off the server; the victim's process receives an
  :class:`~repro.desim.core.Interrupt` whose cause is a :class:`Preempted`
  record.  This is exactly the "workstation owner preempts the parallel task"
  behaviour at the heart of the paper's model.

A :class:`Store` (FIFO object buffer with blocking ``get``) is also provided;
the PVM-like substrate uses it for message queues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .core import Environment, Process
from .events import Event

__all__ = [
    "Preempted",
    "Request",
    "Release",
    "Resource",
    "PriorityResource",
    "PreemptiveResource",
    "Store",
    "StorePut",
    "StoreGet",
]


@dataclass(frozen=True)
class Preempted:
    """Cause attached to the interrupt delivered to a preempted process."""

    by: Optional[Process]
    usage_since: float
    resource: "Resource"


class Request(Event):
    """A request for one slot of a resource; also a context manager.

    Using the request as a context manager guarantees the slot is released
    even if the requesting process is interrupted or fails::

        with cpu.request(priority=1) as req:
            yield req
            yield env.timeout(work)
    """

    def __init__(
        self,
        resource: "Resource",
        priority: int = 0,
        preempt: bool = True,
    ) -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        self.preempt = preempt
        self.time = resource.env.now
        self.process = resource.env.active_process
        #: Simulation time at which the request acquired the resource.
        self.usage_since: Optional[float] = None
        #: Monotonic tie-breaker so equal-priority requests stay FIFO.
        self.order = resource._next_order()
        resource._do_request(self)

    @property
    def sort_key(self) -> tuple[int, float, int]:
        return (self.priority, self.time, self.order)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a request that has not been granted yet (no-op otherwise)."""
        if not self.triggered and self in self.resource.queue:
            self.resource.queue.remove(self)


class Release(Event):
    """Event returned by :meth:`Resource.release`; triggers immediately."""

    def __init__(self, resource: "Resource", request: Request) -> None:
        super().__init__(resource.env)
        self.request = request
        resource._do_release(self)
        self.succeed()


class Resource:
    """A server with fixed ``capacity`` and FIFO waiting queue."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.env = env
        self.capacity = capacity
        #: Requests currently holding a slot.
        self.users: list[Request] = []
        #: Requests waiting for a slot.
        self.queue: list[Request] = []
        self._order_counter = 0

    def _next_order(self) -> int:
        self._order_counter += 1
        return self._order_counter

    # -- public API --------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    def request(self, priority: int = 0, preempt: bool = True) -> Request:
        """Request one slot (``priority``/``preempt`` are honoured by subclasses)."""
        return Request(self, priority=priority, preempt=preempt)

    def release(self, request: Request) -> Release:
        """Release a previously granted (or still queued) request."""
        return Release(self, request)

    # -- internal machinery --------------------------------------------------
    def _do_request(self, request: Request) -> None:
        self.queue.append(request)
        self._sort_queue()
        self._maybe_preempt(request)
        self._dispatch()

    def _do_release(self, release: Release) -> None:
        request = release.request
        if request in self.users:
            self.users.remove(request)
        else:
            request.cancel()
        self._dispatch()

    def _sort_queue(self) -> None:
        """FIFO by default; priority subclasses override."""

    def _maybe_preempt(self, request: Request) -> None:
        """No preemption by default; PreemptiveResource overrides."""

    def _dispatch(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            request = self.queue.pop(0)
            if request.triggered:
                continue
            request.usage_since = self.env.now
            self.users.append(request)
            request.succeed()


class PriorityResource(Resource):
    """Resource whose waiting queue is ordered by request priority.

    Lower numeric priority values are served first; ties break by arrival
    time, then by request creation order.
    """

    def _sort_queue(self) -> None:
        self.queue.sort(key=lambda request: request.sort_key)


class PreemptiveResource(PriorityResource):
    """Priority resource where urgent requests evict less important users.

    When a request arrives, the resource is full, and the least important
    current user has a *strictly larger* priority value than the newcomer
    (and the newcomer asked for ``preempt=True``), that user is removed and
    its process receives ``Interrupt(Preempted(...))``.  The victim is *not*
    re-queued automatically — re-requesting (typically with the remaining
    service demand) is the victim's responsibility, which is precisely how the
    workstation model resumes a parallel task after the owner leaves.
    """

    def _maybe_preempt(self, request: Request) -> None:
        if not request.preempt or len(self.users) < self.capacity:
            return
        if not self.users:
            return
        victim = max(self.users, key=lambda user: user.sort_key)
        if victim.priority <= request.priority:
            return
        self.users.remove(victim)
        if victim.process is not None and victim.process.is_alive:
            victim.process.interrupt(
                Preempted(
                    by=request.process,
                    usage_since=victim.usage_since
                    if victim.usage_since is not None
                    else self.env.now,
                    resource=self,
                )
            )


class StorePut(Event):
    """Event for placing an item into a store (triggers when accepted)."""

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item
        store._do_put(self)


class StoreGet(Event):
    """Event for taking an item out of a store (triggers when one is available)."""

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        store._do_get(self)


class Store:
    """Unbounded (or bounded) FIFO buffer of Python objects.

    ``put`` succeeds immediately while there is capacity; ``get`` blocks the
    calling process until an item is available.  The PVM substrate uses one
    store per task as its incoming-message mailbox.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self.env = env
        self.capacity = capacity
        self.items: list[Any] = []
        self._putters: list[StorePut] = []
        self._getters: list[StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Offer ``item`` to the store."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Request the oldest item in the store (blocking)."""
        return StoreGet(self)

    def _do_put(self, event: StorePut) -> None:
        self._putters.append(event)
        self._dispatch()

    def _do_get(self, event: StoreGet) -> None:
        self._getters.append(event)
        self._dispatch()

    def _dispatch(self) -> None:
        # Move accepted puts into the buffer.
        while self._putters and len(self.items) < self.capacity:
            put = self._putters.pop(0)
            self.items.append(put.item)
            put.succeed()
        # Serve waiting getters.
        while self._getters and self.items:
            get = self._getters.pop(0)
            get.succeed(self.items.pop(0))
        # Accepting a get may have freed capacity for a pending put.
        while self._putters and len(self.items) < self.capacity:
            put = self._putters.pop(0)
            self.items.append(put.item)
            put.succeed()
            while self._getters and self.items:
                get = self._getters.pop(0)
                get.succeed(self.items.pop(0))
