"""Built-in simlint rules.

Importing this package registers every built-in rule with the registry in
:mod:`repro.lint.core` — the same import-time registration pattern the
simulation backends use.
"""

# Import order fixes registration order (and so --list-rules / report order):
# keep it numeric by rule id.
from .determinism import DeterminismRule
from .interrupts import InterruptSafetyRule
from .registry_bypass import RegistryBypassRule
from .layering import KernelLayeringRule
from .telemetry import TelemetryLayeringRule

__all__ = [
    "DeterminismRule",
    "InterruptSafetyRule",
    "KernelLayeringRule",
    "RegistryBypassRule",
    "TelemetryLayeringRule",
]
