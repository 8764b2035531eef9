"""Every name a package module imports, and every private name it defines at
module level, is used in that module.

A stand-in for a linter's unused-import and unused-name rules that needs
nothing beyond the standard library: each ``src/msvdd/*.py`` is parsed with
`ast`.  Every name an import binds must be read somewhere in the module,
except in ``__init__.py``, whose imports are its exports; and every private
module-level name (``_x``, not a dunder) that a ``def``, ``class`` or
assignment binds must be read in its own module, so a helper that a deletion
leaves without callers fails here.  Docstrings and comments do not count.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "msvdd"
ALL_MODULES = sorted(p.name for p in SRC.glob("*.py"))
MODULES = [m for m in ALL_MODULES if m != "__init__.py"]


def _reads(tree) -> set[str]:
    return {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
    return sorted(bound - _reads(tree))


def unused_private_names(source: str) -> list[str]:
    """Private names that a top-level statement of ``source`` binds and that
    no expression of ``source`` reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    private = {name for name in bound if name.startswith("_") and not name.startswith("__")}
    return sorted(private - _reads(tree))


def test_checker_flags_an_unused_import():
    assert "exact.py" in MODULES
    source = (
        "from __future__ import annotations\n"
        "import io\nimport os.path\nfrom math import inf as INF, pi\n"
        '"""io and pi in a docstring are not uses"""\n'
        "def f(x: INF) -> None:\n    return os.path.sep\n"
    )
    assert unused_imports(source) == ["io", "pi"]


def test_checker_flags_an_unused_private_name():
    source = (
        "_USED, _SPARE = 1, 2\n_LOG: list = []\n__all__ = []\n"
        "class _Kept:\n    _attr = 0\n"
        "def _helper():\n    '''_orphan in a docstring is not a use'''\n    return _USED\n"
        "def _orphan(x):\n    _local = x\n    return _Kept\n"
        "def public():\n    return _helper()\n"
    )
    assert unused_private_names(source) == ["_LOG", "_SPARE", "_orphan"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_unused_private_names(module):
    assert unused_private_names((SRC / module).read_text()) == []
