"""No module of the package or of its tests imports a name its body never uses,
and the package defines no top-level name that nothing reads.

Each ``src/etconsensus/*.py`` module but ``__init__``, and each
``tests/*.py`` module, is parsed with ``ast``. Every name a module-level
import binds (also inside a module-level ``if``, such as
``if TYPE_CHECKING:``) must be read somewhere in the module: as a name, as
the root of an attribute, or in an annotation. A name that
``etconsensus/__init__.py`` imports from a package module counts as read,
since the package re-exports it.

Every function, class and constant defined at the top level of a package
module (dunder names left out) must be read as a name or an attribute
somewhere in ``src/`` or ``tests/``, be named as a string in the hook tables
of ``bench/tracing.py``, which wraps functions by name, or be re-exported by
``__init__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "etconsensus"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
HOOKS = ROOT / "bench" / "tracing.py"


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


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.stem)
def test_every_test_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = _read_names(tree)
    unused = [name for name in _imported_names(tree) if name not in used]
    assert unused == [], f"tests/{path.name} imports {unused} and never uses them"


def _definitions(tree: ast.Module) -> list:
    """The functions, classes and constants the module defines at its top level, dunders left out."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def _read_anywhere() -> set:
    """Every name and attribute read in ``src/`` or ``tests/``."""
    read = set()
    for path in [*PACKAGE.glob("*.py"), *TESTS]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def _hook_names() -> set:
    """The strings in the tuples that ``bench/tracing.py`` assigns at its top level."""
    tree = ast.parse(HOOKS.read_text())
    return {
        const.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
        for const in ast.walk(node.value)
        if isinstance(const, ast.Constant) and isinstance(const.value, str)
    }


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_every_definition_is_read(path):
    defined = _definitions(ast.parse(path.read_text()))
    known = _read_anywhere() | _hook_names() | _reexported(path.stem)
    unread = [name for name in defined if name not in known]
    assert unread == [], f"{path.name} defines {unread} and nothing reads them"
