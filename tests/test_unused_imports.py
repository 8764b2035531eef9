"""Every name a package module imports is used in that module.

A stand-in for a linter's unused-import rule that needs nothing beyond the
standard library: each ``src/msvdd/*.py`` except ``__init__.py``, whose
imports are its exports, is parsed with `ast`, and every name an import binds
must be read somewhere in the module.  Docstrings and comments do not count.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "msvdd"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_checker_flags_an_unused_import():
    assert "exact.py" in MODULES
    source = (
        "from __future__ import annotations\n"
        "import io\nimport os.path\nfrom math import inf as INF, pi\n"
        '"""io and pi in a docstring are not uses"""\n'
        "def f(x: INF) -> None:\n    return os.path.sep\n"
    )
    assert unused_imports(source) == ["io", "pi"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []
