"""PVM-like message-passing substrate running in simulated time.

Substitute for the PVM package used by the paper's experimental validation:
virtual machine of non-dedicated hosts, task spawning, typed message buffers
with send/recv/probe, and the master/worker "local computation" program whose
maximum task execution time Figure 10 reports.
"""

from .machine import PvmContext, PvmError, TaskInfo, VirtualMachine
from .messages import ANY_SOURCE, ANY_TAG, Message, MessageBuffer, PackingError
from .network import NetworkModel
from .programs import (
    DONE_TAG,
    RESULT_TAG,
    WORK_TAG,
    LocalComputationResult,
    SelfSchedulingResult,
    TaskTiming,
    local_computation_master,
    local_computation_worker,
    run_local_computation,
    run_self_scheduling,
)

__all__ = [
    "VirtualMachine",
    "PvmContext",
    "PvmError",
    "TaskInfo",
    "Message",
    "MessageBuffer",
    "PackingError",
    "ANY_SOURCE",
    "ANY_TAG",
    "NetworkModel",
    "RESULT_TAG",
    "WORK_TAG",
    "DONE_TAG",
    "TaskTiming",
    "LocalComputationResult",
    "SelfSchedulingResult",
    "local_computation_master",
    "local_computation_worker",
    "run_local_computation",
    "run_self_scheduling",
]
