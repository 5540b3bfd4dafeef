"""No module under ``src/repro`` imports a name it never reads.

Package ``__init__`` files are skipped (their imports are re-exports), and
so is an import marked ``# noqa: F401`` (one imported for its side effect,
such as registering the built-in lint rules).  A name counts as read when
the module's code loads it, when a string annotation names it, or when the
module's ``__all__`` lists it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(
    path for path in SRC.rglob("*.py") if path.name != "__init__.py"
)


def _names_in_string(text: str) -> set[str]:
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError:
        return set()
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree: ast.AST) -> set[str]:
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read |= _names_in_string(node.value)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            )
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            read |= {
                element.value
                for element in node.value.elts
                if isinstance(element, ast.Constant)
            }
    return read


def unused_imports(path: Path) -> list[str]:
    """``"<line>: <name>"`` for each imported name the module never reads."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            line = getattr(alias, "lineno", node.lineno)
            if any(
                "# noqa: F401" in lines[number - 1]
                for number in {node.lineno, line}
            ):
                continue
            name = alias.asname or alias.name.split(".")[0]
            if name != "*":
                imported.append((line, name))
    read = _read_names(tree)
    return [f"{line}: {name}" for line, name in imported if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    assert len(MODULES) > 50 and SRC / "kernel" / "machine.py" in MODULES
    found = {str(path.relative_to(SRC)): unused_imports(path) for path in MODULES}
    assert {module: names for module, names in found.items() if names} == {}


def test_detects_an_unused_import_and_honours_the_exemptions(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import sys  # noqa: F401\n"
        "from typing import TYPE_CHECKING, Sequence\n"
        "from json import dumps, loads\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path\n"
        "__all__ = ['dumps']\n"
        "def f(x: 'Path') -> None:\n"
        "    '''Sequence is only mentioned here.'''\n"
    )
    assert unused_imports(module) == ["2: os", "4: Sequence", "5: loads"]
