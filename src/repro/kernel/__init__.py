"""``repro.kernel`` — array-based event kernel for the cluster hot path.

A drop-in executor for the event-driven back-ends that replaces the
per-event Python-object path (generator coroutines parked on
:mod:`repro.desim` events) with a flat agenda of heap tuples and integer
transition tables, while reproducing the oracle's results bit for bit:

:mod:`repro.kernel.agenda`
    The binary-heap event agenda: ``(when, priority, tie)`` ordering with
    the oracle's FIFO tie-breaking contract, plus tie *ticks* for elided
    no-op events.

:mod:`repro.kernel.machine`
    :class:`EventKernel`, the flattened closed- and open-system event loops
    (owner/task/job/source state machines instead of coroutines).

:mod:`repro.kernel.backend`
    The ``event-kernel`` registry backend, which the sweep runner executes
    the oracles' points on.  Imported by :mod:`repro.backends` (which owns the
    registry), *not* here — importing ``repro.kernel`` alone must not drag
    the backend layer in, both to keep layering one-directional and to avoid
    an import cycle.
"""

from .agenda import NORMAL, URGENT, EventAgenda
from .machine import KERNEL_POLICIES, EventKernel

__all__ = [
    "EventAgenda",
    "EventKernel",
    "KERNEL_POLICIES",
    "NORMAL",
    "URGENT",
]
