"""Non-dedicated workstation-cluster simulator.

This package is the simulation substrate of the reproduction: explicit
workstations whose owners preempt parallel tasks, plus fast model-faithful
samplers used to validate the analytical model exactly as the paper's CSIM
study did.
"""

from .admission import (
    ADMISSION_POLICIES,
    ADMISSION_POLICY_NAMES,
    AdmissionController,
    AdmissionEvent,
    AdmissionPolicy,
    AdmissionPreemption,
    AdmissionTicket,
    EasyBackfillAdmission,
    FCFSAdmission,
    PriorityAdmission,
    make_admission_policy,
)
from .job import (
    JobResult,
    OpenJobRecord,
    TaskResult,
    balanced_tasks,
    imbalanced_tasks,
)
from .owner import OWNER_PRIORITY, TASK_PRIORITY, OwnerBehavior, owner_process
from .policies import (
    POLICIES,
    POLICY_NAMES,
    MigrateOnOwnerArrival,
    SchedulingPolicy,
    SelfScheduling,
    StaticPartition,
    make_policy,
)
from .workstation import TaskExecution, Workstation

#: Names re-exported from :mod:`repro.backends`.  They resolve lazily via
#: module ``__getattr__`` so importing this package never races the backends
#: package, which imports the leaf modules above while it initialises
#: (PEP 562).
_SIMULATION_EXPORTS = frozenset(
    {
        "DiscreteTimeSimulator",
        "EventDrivenClusterSimulator",
        "MonteCarloSampler",
        "OpenSystemResult",
        "OpenSystemSimulator",
        "SimulationConfig",
        "SimulationResult",
        "run_simulation",
        "simulate_task_discrete",
    }
)


def __getattr__(name: str):
    if name in _SIMULATION_EXPORTS:
        from .. import backends

        return getattr(backends, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SIMULATION_EXPORTS)

__all__ = [
    "AdmissionController",
    "AdmissionEvent",
    "AdmissionPolicy",
    "AdmissionPreemption",
    "AdmissionTicket",
    "FCFSAdmission",
    "EasyBackfillAdmission",
    "PriorityAdmission",
    "ADMISSION_POLICIES",
    "ADMISSION_POLICY_NAMES",
    "make_admission_policy",
    "OwnerBehavior",
    "owner_process",
    "OWNER_PRIORITY",
    "TASK_PRIORITY",
    "Workstation",
    "TaskExecution",
    "JobResult",
    "OpenJobRecord",
    "TaskResult",
    "balanced_tasks",
    "imbalanced_tasks",
    "SchedulingPolicy",
    "StaticPartition",
    "SelfScheduling",
    "MigrateOnOwnerArrival",
    "POLICIES",
    "POLICY_NAMES",
    "make_policy",
    "SimulationConfig",
    "SimulationResult",
    "DiscreteTimeSimulator",
    "MonteCarloSampler",
    "EventDrivenClusterSimulator",
    "OpenSystemSimulator",
    "OpenSystemResult",
    "run_simulation",
    "simulate_task_discrete",
]
