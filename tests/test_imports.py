"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import dunkl_jacobi

MODULES = sorted(p for p in Path(dunkl_jacobi.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names bound by imports in ``source`` that no other line reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_a_stale_import():
    source = ("from __future__ import annotations\n"
              "import math, os.path\nfrom x import a, b as c\nc(1)\n")
    assert unused_imports(source) == ["math", "os", "a"]
