"""``repro.kernel`` — array-based event kernel for the cluster hot path.

A drop-in executor for the event-driven back-ends that replaces the
per-event Python-object path (generator coroutines parked on
:mod:`repro.desim` events) with one flat event loop over a heap of plain
tuples and integer transition tables, while reproducing the oracle's results
bit for bit:

:mod:`repro.kernel.machine`
    :class:`EventKernel`: the closed system, the classless job stream and
    the space-shared job classes run on one loop that defines the owner,
    CPU and task state machines once (instead of coroutines); only the job
    lifecycle differs between them.  The module also states the ordering
    contract the loop shares with the oracle's agenda.

:mod:`repro.kernel.backend`
    The ``event-kernel`` registry backend, which the sweep runner executes
    the oracles' points on.  Imported by :mod:`repro.backends` (which owns the
    registry), *not* here — importing ``repro.kernel`` alone must not drag
    the backend layer in, both to keep layering one-directional and to avoid
    an import cycle.
"""

from .machine import KERNEL_POLICIES, EventKernel

__all__ = [
    "EventKernel",
    "KERNEL_POLICIES",
]
