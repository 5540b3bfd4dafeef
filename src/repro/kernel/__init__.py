"""``repro.kernel`` — array-based event kernel for the cluster hot path.

A drop-in executor for the event-driven back-ends that replaces the
per-event Python-object path (generator coroutines parked on
:mod:`repro.desim` events) with one flat event loop over a heap of plain
tuples and integer transition tables, while reproducing the oracle's results
bit for bit:

:mod:`repro.kernel.machine`
    :class:`EventKernel`, whose one entry point :meth:`EventKernel.run`
    returns a config's whole result fields.  The closed system, the
    classless job stream and the space-shared job classes run on one loop
    that defines the owner, CPU and task state machines once (instead of
    coroutines); only the job lifecycle, read off the scenario, differs
    between them.  The module also states the ordering contract the loop
    shares with the oracle's agenda.

The ``event-kernel`` registry backend that wraps it lives in
:mod:`repro.backends.event_kernel`, and this package imports nothing from
:mod:`repro.backends`, so the layering runs one way and has no cycle.
"""

from .machine import KERNEL_POLICIES, EventKernel

__all__ = [
    "EventKernel",
    "KERNEL_POLICIES",
]
