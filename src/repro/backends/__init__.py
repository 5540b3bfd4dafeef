"""Pluggable simulation back-ends for the non-dedicated cluster model.

Five back-ends are provided, in increasing order of generality — the faithful
:class:`DiscreteTimeSimulator`, the vectorised :class:`MonteCarloSampler`
and its direct max-distribution sibling :class:`MonteCarloMaxSampler`, the
process-oriented :class:`EventDrivenClusterSimulator` and the job-stream
:class:`OpenSystemSimulator` — each registered under its mode name in the
backend registry defined by :mod:`repro.backends.base`.  Every dispatching
layer (``run_simulation``, the sweep runner, the result cache, the grid
tables, the CLI ``--mode`` choices) resolves back-ends through
:func:`get_backend`, so a new backend registered with
:func:`register_backend` is available end-to-end without touching any of
them.

The modules import in dependency order; importing this package registers all
built-in back-ends.
"""

from .base import (
    SimulationBackend,
    SimulationConfig,
    SimulationMode,
    SimulationResult,
    backend_names,
    get_backend,
    register_backend,
    run_simulation,
    validate_against_analysis,
)
from .discrete import DiscreteTimeSimulator, simulate_task_discrete
from .event_driven import EventDrivenClusterSimulator
from .monte_carlo import MonteCarloMaxSampler, MonteCarloSampler
from .open_system import OpenSystemResult, OpenSystemSimulator

# The array-kernel backend lives with its executor in repro.kernel; importing
# the *module* (not a name from it) registers "event-kernel" while staying
# robust to partially initialised modules when repro.kernel is imported first
# (its backend module imports repro.backends.base, closing a cycle that the
# attribute-deferred __getattr__ below keeps harmless).
from ..kernel import backend as _kernel_backend  # noqa: E402  (registration)


def __getattr__(name: str):
    if name == "EventKernelBackend":
        return _kernel_backend.EventKernelBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "SimulationBackend",
    "SimulationConfig",
    "SimulationMode",
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
    "run_simulation",
    "simulate_task_discrete",
    "validate_against_analysis",
]
