"""simlint: domain-aware static analysis for the reproduction's invariants.

The linter proves, at AST level, the conventions the simulator's correctness
depends on — the guarantees that were previously enforced only by hypothesis
tests and comments:

========  ============================================================
SL001     determinism: randomness flows through ``StreamRegistry``
SL003     interrupt safety: process generators cannot swallow Interrupts
SL004     registry bypass: backend dispatch only via ``get_backend``
SL006     kernel layering: the array kernel imports only desim's rng layer
SL007     telemetry layering: pinned hot loops never touch ``obs`` or clocks
========  ============================================================

Two ids are retired and never reused.  SL002 (fingerprint coverage): the
cache key is now the config's one JSON encoding, walked off the spec
dataclasses, so every field enters it by construction.  SL005 (NPZ
symmetry): a cache entry's layout is now its result dataclass's fields
(:func:`repro.engine.cache.result_arrays`), so no hand-written
serialize/deserialize pair is left to keep in step.

Run it as ``repro-experiments lint <paths>`` (or
``python -m repro.cli lint``); configure it in the ``[tool.simlint]`` table
of ``pyproject.toml``; suppress a deliberate exception with a
``# simlint: ignore[RULE]`` comment on the flagged line.
"""

from .config import LintConfig, load_config
from .core import (
    Finding,
    LintRule,
    SourceFile,
    all_rules,
    get_rule,
    register_rule,
    rule_names,
)
from .runner import discover_files, format_findings, run_lint

__all__ = [
    "Finding",
    "LintConfig",
    "LintRule",
    "SourceFile",
    "all_rules",
    "discover_files",
    "format_findings",
    "get_rule",
    "load_config",
    "register_rule",
    "rule_names",
    "run_lint",
]
