"""Every name a library module binds is read somewhere.

Top-level imports must be read in their module, and a local name a
function assigns must be read in that function (``_`` excepted).  Every
function, class and method the library defines must be read by name in
the library, the demos or the benchmark.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path
    for path in (ROOT / "src" / "aft").glob("*.py")
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


# Definitions kept although nothing outside the tests reads them.
UNREAD_ALLOWED = {
    ("groups", "GroupElement.is_identity"): (
        "the label-level action reference skips the identity element with it"
    ),
    ("groups", "Subgroup.contains"): (
        "element membership, the oracle the group tests check kernels, "
        "meets and enumerated subgroups against"
    ),
    ("linear", "model_to_json"): (
        "the inverse of model_from_json, so the model format round-trips"
    ),
}


def definitions(source):
    """Qualified names of the top-level functions and classes and of the
    methods of those classes, dunders excepted."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append(node.name)
        if isinstance(node, ast.ClassDef):
            found += [
                f"{node.name}.{sub.name}"
                for sub in node.body
                if isinstance(sub, ast.FunctionDef)
            ]
    return [q for q in found if not q.rpartition(".")[2].startswith("__")]


def read_names(source):
    """Names a module loads, and attribute names it reads or writes."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def traced_names(source):
    """(module, qualified name) of each target in the tracer's TARGETS."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and [
            getattr(t, "id", None) for t in node.targets
        ] == ["TARGETS"]:
            return {
                (module.rpartition(".")[2], name)
                for _, module, name in ast.literal_eval(node.value)
            }
    raise AssertionError("no TARGETS in the tracer")


def unread_definitions(modules, readers, traced=frozenset()):
    """(module, qualified name) for each definition in ``modules`` (name ->
    source) whose own name no source in ``readers`` reads, and that is not
    in ``traced``."""
    read = set().union(*map(read_names, readers))
    return [
        (module, q)
        for module, source in modules.items()
        for q in definitions(source)
        if q.rpartition(".")[2] not in read and (module, q) not in traced
    ]


def test_unread_definition_check_sees_reads_and_misses():
    library = (
        "def used(): pass\n"
        "def unused(): pass\n"
        "def traced(): pass\n"
        "class Thing:\n"
        "    def __init__(self): pass\n"
        "    def method(self): pass\n"
        "    def other(self): pass\n"
    )
    reader = "from m import unused\nused()\nThing().method()\n"
    traced = {("m", "traced")}
    assert unread_definitions({"m": library}, [reader], traced) == [
        ("m", "unused"),
        ("m", "Thing.other"),
    ]


def test_every_definition_is_read():
    # __init__.py only re-exports, so its imports do not count as reads.
    readers = [path.read_text() for path in SOURCES] + [
        path.read_text()
        for folder in ("demos", "benchmarks")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    traced = traced_names((ROOT / "benchmarks" / "tracer.py").read_text())
    modules = {path.stem: path.read_text() for path in SOURCES}
    unread = unread_definitions(modules, readers, traced)
    assert sorted(set(unread) - set(UNREAD_ALLOWED)) == []
    assert sorted(set(UNREAD_ALLOWED) - set(unread)) == []
