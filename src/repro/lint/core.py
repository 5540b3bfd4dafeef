"""Shared visitor core and rule registry of the ``simlint`` static analyser.

The simulator's correctness guarantees — bitwise-reproducible sweeps,
never-stale cache replays, desim processes that cannot swallow preemption
:class:`~repro.desim.Interrupt`\\ s — were historically enforced only
dynamically (hypothesis tests that *happened* to flush the bugs) or by
comments begging future authors to keep things in sync.  ``simlint`` turns
those conventions into checked code: each invariant is a :class:`LintRule`
that inspects the AST and reports :class:`Finding`\\ s before anything runs.

The module mirrors the backend registry design
(:func:`repro.backends.register_backend`): rules subclass :class:`LintRule`,
register themselves with :func:`register_rule` under a stable ``SLxxx`` id,
and every dispatching layer — the runner, the CLI ``--select``/``--ignore``
options, the docs table — resolves rules through :func:`get_rule` /
:func:`rule_names`.

Parsing happens once per file: :class:`SourceFile` wraps the source text with
a lazily built AST, a node→parent map, a per-node enclosing-function index
and the suppression table (``# simlint: ignore[RULE]`` pragmas), so N rules
share one parse instead of re-walking the tree N times.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Finding",
    "SourceFile",
    "LintRule",
    "register_rule",
    "get_rule",
    "rule_names",
    "all_rules",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    column: int
    message: str

    def as_dict(self) -> dict[str, object]:
        """JSON-serialisable form (the ``--format json`` report rows)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
        }

    def render(self) -> str:
        """Conventional ``path:line:col: RULE message`` text form."""
        return f"{self.path}:{self.line}:{self.column}: {self.rule} {self.message}"


#: ``# simlint: ignore`` / ``# simlint: ignore[SL001,SL004]`` on the flagged
#: line suppresses matching findings; ``# simlint: ignore-file[SL004]`` on any
#: line suppresses the rule for the whole file (use sparingly, with a comment
#: saying why).
_PRAGMA = re.compile(
    r"#\s*simlint:\s*ignore(?P<scope>-file)?(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?"
)


class SourceFile:
    """One parsed Python source file shared by every rule.

    Exposes the raw ``text``/``lines``, the parsed ``tree`` (``None`` with a
    syntax error recorded in :attr:`parse_error`), a ``parent`` map for upward
    navigation, and the suppression pragmas.  All derived structures build
    lazily and are cached, so files a rule never inspects cost one parse at
    most.
    """

    def __init__(self, path: str | Path, text: str | None = None) -> None:
        self.path = Path(path)
        if text is None:
            text = self.path.read_text(encoding="utf-8")
        self.text = text
        self.lines = text.splitlines()
        self.parse_error: SyntaxError | None = None
        try:
            self.tree: ast.Module | None = ast.parse(text, filename=str(self.path))
        except SyntaxError as exc:
            self.tree = None
            self.parse_error = exc
        self._parents: dict[ast.AST, ast.AST] | None = None
        self._suppress_lines: dict[int, frozenset[str] | None] | None = None
        self._suppress_file: frozenset[str] | None = None
        self._generator_functions: list[ast.FunctionDef | ast.AsyncFunctionDef] | None = None

    # -- navigation --------------------------------------------------------

    def walk(self) -> Iterator[ast.AST]:
        """All nodes of the tree (empty for unparseable files)."""
        if self.tree is None:
            return iter(())
        return ast.walk(self.tree)

    @property
    def parents(self) -> Mapping[ast.AST, ast.AST]:
        """Child → parent map over the whole tree."""
        if self._parents is None:
            parents: dict[ast.AST, ast.AST] = {}
            for node in self.walk():
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    def nodes_of(self, *types: type) -> Iterator[ast.AST]:
        """All nodes of the given AST types (breadth-first walk order)."""
        for node in self.walk():
            if isinstance(node, types):
                yield node

    def generator_functions(self) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
        """Functions whose *own* body yields (desim process generators).

        A ``yield`` inside a nested function does not make the outer function
        a generator, so ownership is resolved through the parent map.
        """
        if self._generator_functions is None:
            owners: set[ast.AST] = set()
            for node in self.walk():
                if isinstance(node, (ast.Yield, ast.YieldFrom)):
                    owner = self.enclosing_function(node)
                    if owner is not None:
                        owners.add(owner)
            self._generator_functions = [
                node
                for node in self.nodes_of(ast.FunctionDef, ast.AsyncFunctionDef)
                if node in owners
            ]
        return self._generator_functions

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        """The innermost function definition containing ``node``."""
        parent = self.parents.get(node)
        while parent is not None:
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return parent
            parent = self.parents.get(parent)
        return None

    # -- suppressions ------------------------------------------------------

    def _scan_pragmas(self) -> None:
        per_line: dict[int, frozenset[str] | None] = {}
        file_wide: set[str] = set()
        for lineno, line in enumerate(self.lines, start=1):
            if "simlint" not in line:
                continue
            match = _PRAGMA.search(line)
            if match is None:
                continue
            rules = match.group("rules")
            ids = (
                None
                if rules is None
                else frozenset(r.strip() for r in rules.split(",") if r.strip())
            )
            if match.group("scope"):
                # ignore-file with no rule list would silence everything;
                # require an explicit list so blanket mutes stay visible.
                if ids:
                    file_wide.update(ids)
            else:
                per_line[lineno] = ids
        self._suppress_lines = per_line
        self._suppress_file = frozenset(file_wide)

    def is_suppressed(self, rule: str, line: int) -> bool:
        """Whether a pragma mutes ``rule`` at the given 1-based line."""
        if self._suppress_lines is None:
            self._scan_pragmas()
        assert self._suppress_lines is not None and self._suppress_file is not None
        if rule in self._suppress_file:
            return True
        if line in self._suppress_lines:
            ids = self._suppress_lines[line]
            return ids is None or rule in ids
        return False

    def matches(self, suffix: str) -> bool:
        """Whether this file's path ends with the given ``/``-separated suffix."""
        want = Path(suffix).parts
        have = self.path.parts
        return len(have) >= len(want) and have[-len(want):] == want

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SourceFile({str(self.path)!r})"


class LintRule:
    """Base class of every simlint rule.

    Subclasses set :attr:`rule_id` (the stable ``SLxxx`` registry key) and
    :attr:`summary`, then override one of the two hooks:

    ``check_file``
        Called once per source file — for rules whose invariant is local to a
        file (SL001 determinism, SL003 interrupt safety).

    ``check_project``
        Called once with *every* source file — for rules whose invariant
        spans files (SL004 registry bypass).

    Both default to reporting nothing, so a rule implements only the scope it
    needs.  Suppression pragmas are applied by the runner, not the rules.
    """

    rule_id: ClassVar[str]
    summary: ClassVar[str]

    def __init__(self, config: "LintConfig") -> None:  # noqa: F821
        self.config = config

    def check_file(self, source: SourceFile) -> Iterable[Finding]:
        return ()

    def check_project(self, sources: Sequence[SourceFile]) -> Iterable[Finding]:
        return ()

    def finding(
        self, source: SourceFile, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at an AST node of ``source``."""
        return Finding(
            rule=self.rule_id,
            path=str(source.path),
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


_RULES: dict[str, type[LintRule]] = {}


def register_rule(cls: type[LintRule] | None = None, *, replace: bool = False):
    """Register a rule class under its :attr:`~LintRule.rule_id`.

    Mirrors :func:`repro.backends.register_backend`: usable bare or with
    arguments, refuses silent double registration, returns the class
    unchanged.
    """

    def _register(rule: type[LintRule]) -> type[LintRule]:
        rule_id = getattr(rule, "rule_id", None)
        if not rule_id or not isinstance(rule_id, str):
            raise ValueError(f"rule {rule!r} must define a non-empty string 'rule_id'")
        if not (isinstance(rule, type) and issubclass(rule, LintRule)):
            raise TypeError(f"rule {rule!r} must subclass LintRule")
        if not replace and rule_id in _RULES and _RULES[rule_id] is not rule:
            raise ValueError(
                f"a rule named {rule_id!r} is already registered "
                f"({_RULES[rule_id]!r}); pass replace=True to override it"
            )
        _RULES[rule_id] = rule
        return rule

    if cls is None:
        return _register
    return _register(cls)


def get_rule(rule_id: str) -> type[LintRule]:
    """Resolve a rule class by id, with the error listing the known ids."""
    try:
        return _RULES[rule_id]
    except KeyError:
        raise ValueError(
            f"unknown lint rule {rule_id!r}; expected one of {sorted(_RULES)}"
        ) from None


def rule_names() -> tuple[str, ...]:
    """Ids of all registered rules, in registration order."""
    return tuple(_RULES)


def all_rules() -> tuple[type[LintRule], ...]:
    """All registered rule classes, in registration order."""
    return tuple(_RULES.values())


# -- small AST helpers shared by the rules ---------------------------------


def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute/name chains (None for anything else)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def handler_type_names(handler: ast.ExceptHandler) -> tuple[str, ...] | None:
    """Terminal names of the exception types an ``except`` clause catches.

    ``None`` means a bare ``except:`` (catches everything).  Dotted types
    reduce to their terminal attribute (``desim.Interrupt`` → ``Interrupt``).
    """
    if handler.type is None:
        return None
    types = (
        handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    )
    names = []
    for node in types:
        name = dotted_name(node)
        if name is not None:
            names.append(name.rsplit(".", 1)[-1])
    return tuple(names)
