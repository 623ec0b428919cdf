"""Every name a library module binds is read somewhere.

Top-level imports must be read in their module, and a local name a
function assigns must be read in that function (``_`` excepted).
"""

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


def unread_locals(source):
    """(function, name) for each local a function assigns but never reads.

    Reads in nested functions and comprehensions count; ``_`` and names
    declared ``global`` or ``nonlocal`` are skipped.
    """
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, read, shared = [], set(), {"_"}
        for node in ast.walk(func):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    stored.append(node.id)
                elif isinstance(node.ctx, ast.Load):
                    read.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                shared.update(node.names)
        found += [
            (func.name, name)
            for name in dict.fromkeys(stored)
            if name not in read and name not in shared
        ]
    return found


def test_unread_local_check_sees_reads_and_misses():
    source = (
        "def f(xs):\n"
        "    count = 0\n"
        "    total, _ = 0, 1\n"
        "    for x in xs:\n"
        "        count += 1\n"
        "        total = total + x\n"
        "    def g():\n"
        "        nonlocal total\n"
        "        total = 1\n"
        "    return [y for y in xs], g\n"
    )
    assert unread_locals(source) == [("f", "count")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unread_locals(path):
    assert unread_locals(path.read_text()) == []
