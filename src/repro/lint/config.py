"""Configuration of the simlint pass.

Settings live in the ``[tool.simlint]`` table of ``pyproject.toml`` so they
travel with the package metadata; :func:`load_config` walks upward from the
linted path to find it, and every key falls back to the defaults below so the
linter also runs configuration-free (e.g. on the fixture snippets of its own
test suite).
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, fields, replace
from pathlib import Path

__all__ = ["LintConfig", "load_config", "find_pyproject"]


def _tuple(values: object) -> tuple[str, ...]:
    if isinstance(values, str):
        return (values,)
    if isinstance(values, (list, tuple)):
        return tuple(str(v) for v in values)
    raise TypeError(f"expected a string or list of strings, got {values!r}")


@dataclass(frozen=True)
class LintConfig:
    """Resolved simlint settings.

    Attributes
    ----------
    select:
        Rule ids to run (empty = every registered rule).
    ignore:
        Rule ids to skip after selection.
    rng_allowed:
        Path suffixes exempt from SL001 — the one module allowed to construct
        raw numpy generators (the seed-derivation boundary itself).
    interrupt_names:
        Exception-type names SL003 treats as able to deliver a preemption
        (``Interrupt`` plus its catch-all ancestors).
    registry_packages:
        Path fragments of the packages allowed to touch backend classes and
        registry internals directly (SL004).
    registry_internal_names:
        Private registry-dict names whose use outside the registry package is
        always a bypass.
    kernel_packages:
        Path fragments of the array-kernel package SL006 guards.
    kernel_allowed_desim_modules:
        The desim module suffixes the kernel may import — the shared RNG
        layer that the bitwise-pinning contract requires both executors to
        draw through; everything else in desim is generator machinery.
    telemetry_forbidden_packages:
        Path fragments of the bitwise-pinned hot loops SL007 guards: these
        may neither import the telemetry layer nor read the wall clock
        (they expose bare ``tap`` hooks instead; the backends wire
        ``repro.obs`` in from outside).
    telemetry_module:
        Package segment naming the telemetry layer (``obs``).
    telemetry_wallclock_names:
        ``time.<name>()`` calls SL007 flags inside the guarded packages —
        simulation cores advance simulated time only.
    """

    select: tuple[str, ...] = ()
    ignore: tuple[str, ...] = ()
    # SL001
    rng_allowed: tuple[str, ...] = ("src/repro/desim/rng.py",)
    # SL003
    interrupt_names: tuple[str, ...] = ("Interrupt", "Exception", "BaseException")
    # SL004
    registry_packages: tuple[str, ...] = ("src/repro/backends",)
    registry_internal_names: tuple[str, ...] = ("_REGISTRY", "_BACKENDS")
    registry_base_class: str = "SimulationBackend"
    registry_decorator: str = "register_backend"
    # SL006
    kernel_packages: tuple[str, ...] = ("src/repro/kernel",)
    kernel_allowed_desim_modules: tuple[str, ...] = ("desim.rng",)
    # SL007
    telemetry_forbidden_packages: tuple[str, ...] = (
        "src/repro/desim",
        "src/repro/kernel/machine.py",
        "src/repro/cluster",
    )
    telemetry_module: str = "obs"
    telemetry_wallclock_names: tuple[str, ...] = (
        "time",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "thread_time",
    )

    def with_overrides(self, **overrides: object) -> "LintConfig":
        """Copy with the given fields replaced (unknown names rejected)."""
        known = {f.name for f in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise ValueError(
                f"unknown simlint option(s) {sorted(unknown)!r}; "
                f"expected a subset of {sorted(known)!r}"
            )
        return replace(self, **overrides)  # type: ignore[arg-type]


def find_pyproject(start: Path) -> Path | None:
    """Nearest ``pyproject.toml`` at or above ``start``."""
    node = start.resolve()
    if node.is_file():
        node = node.parent
    for candidate in (node, *node.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def load_config(start: Path | str | None = None) -> LintConfig:
    """Load ``[tool.simlint]`` from the nearest ``pyproject.toml``.

    Missing file, missing table and missing keys all fall back to the
    defaults; list-valued keys accept a single string for convenience.  TOML
    uses ``-`` in key names (``rng-allowed``), mapped to the underscored
    dataclass fields here.
    """
    pyproject = find_pyproject(Path(start) if start is not None else Path.cwd())
    if pyproject is None:
        return LintConfig()
    with pyproject.open("rb") as handle:
        data = tomllib.load(handle)
    table = data.get("tool", {}).get("simlint", {})
    if not table:
        return LintConfig()
    known = {f.name for f in fields(LintConfig)}
    unknown = sorted(
        key.replace("-", "_") for key in table if key.replace("-", "_") not in known
    )
    if unknown:
        raise ValueError(
            f"unknown simlint option(s) {unknown!r} in {pyproject}; "
            f"expected a subset of {sorted(known)!r}"
        )
    defaults = LintConfig()
    overrides: dict[str, object] = {}
    for key, value in table.items():
        name = key.replace("-", "_")
        # each default fixes its option's type: a name, or a list of them
        if isinstance(getattr(defaults, name), str):
            overrides[name] = str(value)
        else:
            overrides[name] = _tuple(value)
    return defaults.with_overrides(**overrides)
