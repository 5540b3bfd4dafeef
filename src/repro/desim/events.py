"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic process-oriented design of CSIM (the tool the
paper used) and of modern libraries such as SimPy: an :class:`Event` is a
one-shot synchronisation object that processes can wait on; when it is
*triggered* (succeeded or failed) it is placed on the environment's agenda and
its callbacks run at the scheduled simulation time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .core import Environment

__all__ = ["PENDING", "Event", "Timeout", "ConditionValue", "AllOf", "AnyOf"]


class _Pending:
    """Sentinel marking an event whose value has not been decided yet."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<PENDING>"


PENDING = _Pending()

#: Scheduling priorities: URGENT events (resource bookkeeping) run before
#: NORMAL events scheduled at the same simulation time.
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot occurrence that processes may wait for.

    An event goes through three stages: *pending* (created), *triggered*
    (a value or exception has been set and it sits on the agenda) and
    *processed* (its callbacks have run).  Each callback receives the event
    itself.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        #: Whether a failure was handed to a waiting process (or otherwise
        #: acknowledged); unhandled failures surface when the event is processed.
        self.defused: bool = False

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at t={self.env.now}>"

    @property
    def triggered(self) -> bool:
        """True once a value or an exception has been assigned."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (only meaningful once triggered)."""
        if not self.triggered:
            raise RuntimeError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._value is PENDING:
            raise RuntimeError("event value is not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional value."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._enqueue(self, NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside any process waiting on the event.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() expects an exception, got {exception!r}")
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env._enqueue(self, NORMAL)
        return self

    # -- composition ------------------------------------------------------
    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])


class Timeout(Event):
    """An event that fires automatically after ``delay`` units of simulated time."""

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._enqueue(self, NORMAL, delay=delay)

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover - guard
        raise RuntimeError("Timeout events trigger themselves and cannot be succeeded")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover - guard
        raise RuntimeError("Timeout events trigger themselves and cannot be failed")


class ConditionValue:
    """Ordered mapping of the events that had fired when a condition triggered."""

    def __init__(self, events: Iterable[Event]) -> None:
        self.events = list(events)

    def __getitem__(self, event: Event) -> Any:
        if event not in self.events:
            raise KeyError(event)
        return event.value

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def todict(self) -> dict[Event, Any]:
        return {event: event.value for event in self.events}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ConditionValue {self.todict()!r}>"


class _Condition(Event):
    """Base class for AllOf / AnyOf condition events."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._fired_count = 0
        for event in self._events:
            if event.env is not env:
                raise ValueError("cannot mix events from different environments")
        if not self._events:
            self.succeed(ConditionValue([]))
            return
        for event in self._events:
            if event.processed:
                self._check(event)
            elif event.callbacks is not None:
                event.callbacks.append(self._check)

    def _satisfied(self, fired: int, total: int) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._fired_count += 1
        if self._satisfied(self._fired_count, len(self._events)):
            self.succeed(ConditionValue([e for e in self._events if e.triggered]))


class AllOf(_Condition):
    """Condition that triggers once *all* of its events have succeeded."""

    def _satisfied(self, fired: int, total: int) -> bool:
        return fired == total


class AnyOf(_Condition):
    """Condition that triggers as soon as *any* of its events has succeeded."""

    def _satisfied(self, fired: int, total: int) -> bool:
        return fired >= 1
