"""Every top-level import of a library module is read somewhere in it."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    path
    for path in (Path(__file__).resolve().parents[1] / "src" / "aft").glob("*.py")
    if path.name != "__init__.py"  # its imports are the package's re-exports
)


def unused_imports(source):
    """Names bound by top-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read]


def test_unused_import_check_sees_reads_and_misses():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from .groups import Subgroup, kernel as k\n"
        "def f(x: Subgroup):\n"
        "    return math.gcd(x, 2)\n"
    )
    assert unused_imports(source) == ["os", "k"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []
