"""SL004 — registry bypass: all backend dispatch goes through the registry.

PR 5 replaced the hardcoded ``_BACKENDS`` dict with
:func:`repro.backends.register_backend` / :func:`~repro.backends.get_backend`
precisely so that every layer — ``run_simulation``, the sweep runner, the
result cache, the grid tables, the CLI ``--mode`` choices — sees the same
set of backends.  A call site that instantiates a backend class directly, or
reaches into the private registry dict, re-creates the pre-refactor coupling:
it keeps working for built-in backends while silently ignoring replacements
(``register_backend(replace=True)`` test doubles, future elastic/array-core
backends), which is how dispatch drift starts.

The rule discovers the backend classes statically — any class decorated with
``@register_backend`` or subclassing ``SimulationBackend`` in the linted
files — and then flags, outside the registry package itself (and outside the
module defining the class):

* calls of a backend class (``MonteCarloSampler(config)``),
* attribute access on a backend class (``EventKernelBackend.run_batch``);
  class-level hooks are reachable via ``get_backend(mode)`` too,
* any use of the private registry-dict names (``_REGISTRY`` / ``_BACKENDS``).

Importing and re-exporting the class names stays legal — the package
re-exports (:mod:`repro.backends`, whose names ``repro.cluster`` forwards)
do exactly that.
"""

from __future__ import annotations

import ast
from typing import Iterable, Sequence

from ..core import Finding, LintRule, SourceFile, dotted_name, register_rule

__all__ = ["RegistryBypassRule"]


@register_rule
class RegistryBypassRule(LintRule):
    rule_id = "SL004"
    summary = (
        "no direct backend-class instantiation or private registry access "
        "outside the backends package"
    )

    def check_project(self, sources: Sequence[SourceFile]) -> Iterable[Finding]:
        backend_classes: dict[str, SourceFile] = {}
        for source in sources:
            for node in source.nodes_of(ast.ClassDef):
                if self._is_backend_class(node):
                    backend_classes[node.name] = source
        for source in sources:
            if any(source.matches(pkg) or self._inside(source, pkg)
                   for pkg in self.config.registry_packages):
                continue
            yield from self._check_source(source, backend_classes)

    @staticmethod
    def _inside(source: SourceFile, package_suffix: str) -> bool:
        """Whether the file lives under the given package path fragment."""
        want = tuple(part for part in package_suffix.split("/") if part)
        have = source.path.parts
        for start in range(len(have) - len(want) + 1):
            if have[start:start + len(want)] == want:
                return True
        return False

    def _is_backend_class(self, node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = dotted_name(target)
            if name is not None and name.rsplit(".", 1)[-1] == self.config.registry_decorator:
                return True
        for base in node.bases:
            name = dotted_name(base)
            if name is not None and name.rsplit(".", 1)[-1] == self.config.registry_base_class:
                return True
        return False

    def _check_source(
        self, source: SourceFile, backend_classes: dict[str, SourceFile]
    ) -> Iterable[Finding]:
        local = {
            name for name, defined_in in backend_classes.items()
            if defined_in is source
        }
        # A bare `_REGISTRY` name only counts as a bypass when it was imported
        # from a backends module — an unrelated local registry that happens to
        # share the name is some other module's business.
        imported_internals: set[str] = set()
        for node in source.nodes_of(ast.ImportFrom):
            if node.module and "backends" in node.module.split("."):
                for alias in node.names:
                    if alias.name in self.config.registry_internal_names:
                        imported_internals.add(alias.asname or alias.name)
        for node in source.walk():
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                name = node.func.id
                if name in backend_classes and name not in local:
                    yield self.finding(
                        source,
                        node,
                        f"direct instantiation of backend class {name!r} "
                        "bypasses the registry; dispatch via "
                        "get_backend(mode)(config) / run_simulation so "
                        "replacement backends are honoured",
                    )
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                name = node.value.id
                if name in backend_classes and name not in local:
                    yield self.finding(
                        source,
                        node,
                        f"class-level access {name}.{node.attr} bypasses the "
                        "registry; resolve the class with get_backend(mode) "
                        "first so replacement backends are honoured",
                    )
                elif node.attr in self.config.registry_internal_names:
                    yield self.finding(
                        source,
                        node,
                        f"reach into private registry state "
                        f"{name}.{node.attr} outside the backends package; "
                        "go through register_backend / get_backend / "
                        "backend_names",
                    )
            elif isinstance(node, ast.Name) and node.id in imported_internals:
                yield self.finding(
                    source,
                    node,
                    f"use of private registry state {node.id!r} outside the "
                    "backends package; go through register_backend / "
                    "get_backend / backend_names",
                )
