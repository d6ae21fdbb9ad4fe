"""No module of the package imports a name its body never uses.

Each ``src/etconsensus/*.py`` module but ``__init__`` is parsed with ``ast``.
Every name a module-level import binds (also inside a module-level ``if``,
such as ``if TYPE_CHECKING:``) must be read somewhere in the module: as a
name, as the root of an attribute, or in an annotation. A name that
``etconsensus/__init__.py`` imports from the module counts as read, since the
module re-exports it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "etconsensus"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> list:
    """The names bound by the module's top-level imports, ``__future__`` ones left out."""
    names = []
    todo = list(tree.body)
    while todo:
        node = todo.pop(0)
        if isinstance(node, ast.If):
            todo += node.body + node.orelse
        elif isinstance(node, ast.Import):
            names += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def _read_names(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _reexported(module: str) -> set:
    """Names ``__init__`` imports from ``module``."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
        for alias in node.names
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = _read_names(tree) | _reexported(path.stem)
    unused = [name for name in _imported_names(tree) if name not in used]
    assert unused == [], f"{path.name} imports {unused} and never uses them"
