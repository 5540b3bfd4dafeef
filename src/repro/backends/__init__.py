"""Pluggable simulation back-ends for the non-dedicated cluster model.

Six back-ends are provided, in increasing order of generality — the faithful
:class:`DiscreteTimeSimulator`, the vectorised :class:`MonteCarloSampler`
and its direct max-distribution sibling :class:`MonteCarloMaxSampler`, the
process-oriented :class:`EventDrivenClusterSimulator` and the job-stream
:class:`OpenSystemSimulator` (the generator *oracles*), and
:class:`EventKernelBackend`, the array kernel that stands in for them bit
for bit — each registered under its mode name in the backend registry
defined by :mod:`repro.backends.base`.  Every dispatching layer
(``run_simulation``, the sweep runner, the result cache, the grid tables,
the CLI ``--mode`` choices) resolves back-ends through :func:`get_backend`,
so a new backend registered with :func:`register_backend` is available
end-to-end without touching any of them.

:data:`KERNEL_ORACLES` names the oracle the kernel stands in for, and
:func:`result_class` the result class a point yields; the sweep runner, the
result cache and the kernel's own check read both from here.

The modules import in dependency order, the kernel's adapter last;
importing this package registers all built-in back-ends.
"""

from .base import (
    MAX_POINT_TASKS,
    MAX_WORKSTATIONS,
    SimulationBackend,
    SimulationConfig,
    SimulationResult,
    backend_names,
    get_backend,
    register_backend,
    run_simulation,
)
from .discrete import DiscreteTimeSimulator, simulate_task_discrete
from .event_driven import EventDrivenClusterSimulator
from .monte_carlo import MonteCarloMaxSampler, MonteCarloSampler
from .open_system import OpenSystemResult, OpenSystemSimulator, result_class
from .event_kernel import KERNEL_ORACLES, EventKernelBackend

__all__ = [
    "KERNEL_ORACLES",
    "MAX_POINT_TASKS",
    "MAX_WORKSTATIONS",
    "SimulationBackend",
    "SimulationConfig",
    "SimulationResult",
    "OpenSystemResult",
    "DiscreteTimeSimulator",
    "EventKernelBackend",
    "MonteCarloMaxSampler",
    "MonteCarloSampler",
    "EventDrivenClusterSimulator",
    "OpenSystemSimulator",
    "backend_names",
    "get_backend",
    "register_backend",
    "result_class",
    "run_simulation",
    "simulate_task_discrete",
]
