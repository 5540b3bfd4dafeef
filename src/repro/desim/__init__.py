"""``repro.desim`` — a small process-oriented discrete-event simulation kernel.

This package is the reproduction's substitute for the CSIM simulation language
used by the paper: simulated activities are Python generators that yield
events (timeouts, resource requests, other processes), the
:class:`Environment` advances a virtual clock, and preemptive-priority
resources model the "owner preempts parallel task" CPU discipline.
"""

from .core import AgendaEntry, EmptySchedule, Environment, Interrupt, Process, StopSimulation
from .events import AllOf, AnyOf, ConditionValue, Event, Timeout
from .monitors import TimeWeightedMonitor
from .resources import (
    Preempted,
    PreemptiveResource,
    PriorityResource,
    Release,
    Request,
    Resource,
    Store,
    StoreGet,
    StorePut,
)
from .rng import (
    DeterministicVariate,
    ErlangVariate,
    ExponentialVariate,
    GeometricVariate,
    HyperExponentialVariate,
    SequenceVariate,
    StreamRegistry,
    UniformVariate,
    Variate,
    make_variate,
)

__all__ = [
    "AgendaEntry",
    "Environment",
    "Process",
    "Interrupt",
    "StopSimulation",
    "EmptySchedule",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "ConditionValue",
    "Resource",
    "PriorityResource",
    "PreemptiveResource",
    "Preempted",
    "Request",
    "Release",
    "Store",
    "StorePut",
    "StoreGet",
    "TimeWeightedMonitor",
    "Variate",
    "DeterministicVariate",
    "GeometricVariate",
    "ExponentialVariate",
    "HyperExponentialVariate",
    "SequenceVariate",
    "UniformVariate",
    "ErlangVariate",
    "StreamRegistry",
    "make_variate",
]
