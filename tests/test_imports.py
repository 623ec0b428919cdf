"""Every name a library module binds is read somewhere.

Top-level imports must be read in their module, and a local name a
function assigns must be read in that function (``_`` excepted).  Every
function, class and method the library defines must be read by name in
the library, the demos or the benchmark.  A method whose name another
definition shares is read when the reader that ``SHARED_READERS`` names
for it reads that name.  Every field of a record class the library
defines, a ``@dataclass`` or a subclass of a ``namedtuple``, must be read
as an attribute there too.

Every process pays for ``import aft``, so the library declares its
records as namedtuples: ``dataclasses`` would load ``inspect``, ``ast``
and ``dis`` with it, and ``exec`` each record's methods at import.
"""

import ast
import importlib
import os
import subprocess
import sys
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
    ("actions", "SimplicialAction.to_json"): (
        "the inverse of action_from_json: the report digests write each "
        "corpus action with it"
    ),
    ("bounds", "BoundsConfig.to_json"): (
        "the inverse of BoundsConfig.from_json: the CLI tests write bounds "
        "input with it"
    ),
    ("cli", "_Parser.error"): (
        "argparse calls it on each usage error; the override writes the "
        "error as one JSON line and exits 2"
    ),
    ("bounds", "InjectivityVerdict.collisions"): (
        "the witness of a failed injectivity check; the Minkowski reference "
        "tests compare whole verdicts"
    ),
}

# A read of a method name shared by several definitions does not say
# whose method it is, so each such method names its reader: (file,
# function), where the function reads it on an object of that class.
SHARED_READERS = {
    ("actions", "DivisibilityVerdict.to_json"): ("src/aft/suites.py", "_suite_divisibility"),
    ("actions", "GoodnessCertificate.to_json"): ("src/aft/cli.py", "_cmd_action_check"),
    ("bounds", "BoundsConfig.from_json"): ("src/aft/cli.py", "_cmd_bounds"),
    ("bounds", "BoundsConfig.total_betti"): ("src/aft/bounds.py", "P_chi"),
    ("bounds", "ConstantsReport.to_json"): ("src/aft/cli.py", "_cmd_bounds"),
    ("groups", "Character.order"): ("src/aft/linear.py", "Summand.__new__"),
    ("groups", "FiniteAbelianGroup.elements"): ("src/aft/actions.py", "_element_pass"),
    ("groups", "FiniteAbelianGroup.from_json"): ("src/aft/actions.py", "action_from_json"),
    ("groups", "FiniteAbelianGroup.to_json"): ("src/aft/linear.py", "model_to_json"),
    ("groups", "GroupElement.order"): ("src/aft/groups.py", "crt_power_extract"),
    ("groups", "Subgroup.elements"): ("src/aft/pipeline.py", "_pipeline_action"),
    ("linear", "LinearActionModel.euler_characteristic"): ("src/aft/linear.py", "descent_to_stable"),
    ("linear", "LinearActionModel.total_betti"): ("src/aft/suites.py", "_descent_check"),
    ("linear", "RealRepresentation.dim"): ("src/aft/linear.py", "LinearActionModel.dim_space"),
    ("linear", "Summand.dim"): ("src/aft/linear.py", "RealRepresentation.dim"),
    ("linear", "TheoremResult.to_json"): ("benchmarks/workloads.py", "LinearSweep._check_disk"),
    ("simplicial", "HomologyProfile.to_json"): ("src/aft/cli.py", "_cmd_analyze"),
    ("simplicial", "SimplicialComplex.euler_characteristic"): ("src/aft/simplicial.py", "homology"),
    ("suites", "CaseResult.to_json"): ("src/aft/suites.py", "VerificationReport.to_json"),
    ("suites", "VerificationReport.to_json"): ("src/aft/cli.py", "_cmd_verify"),
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


def shared_methods(modules):
    """(module, qualified name) of each method whose name some other
    definition in ``modules`` also has."""
    owners = {}
    for module, source in modules.items():
        for q in definitions(source):
            owners.setdefault(q.rpartition(".")[2], []).append((module, q))
    return {
        (module, q)
        for found in owners.values()
        if len(found) > 1
        for module, q in found
        if "." in q
    }


def attributes_read(source, qualname):
    """Attribute names read inside the function ``qualname`` of ``source``."""
    scope = ast.parse(source)
    for name in qualname.split("."):
        scope = next(
            node
            for node in scope.body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
        )
    return {node.attr for node in ast.walk(scope) if isinstance(node, ast.Attribute)}


def test_shared_method_check_sees_owners_and_readers():
    modules = {
        "a": "class A:\n    def run(self): pass\n    def own(self): pass\n",
        "b": "class B:\n    def run(self): pass\ndef run(): pass\n",
    }
    assert shared_methods(modules) == {("a", "A.run"), ("b", "B.run")}
    reader = "class R:\n    def go(self, a):\n        return a.run(), self.x\n"
    assert attributes_read(reader, "R.go") == {"run", "x"}


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


def dataclass_fields(source):
    """"Class.field" for each field of each top-level record class: a
    ``@dataclass`` class, whose fields are its annotated names, or a class
    with a base ``namedtuple("Name", "field ...")``."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [
            d.func if isinstance(d, ast.Call) else d for d in node.decorator_list
        ]
        if any(getattr(d, "id", None) == "dataclass" for d in decorators):
            found += [
                f"{node.name}.{sub.target.id}"
                for sub in node.body
                if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)
            ]
        for base in node.bases:
            if isinstance(base, ast.Call) and getattr(base.func, "id", None) == "namedtuple":
                names = ast.literal_eval(base.args[1])
                if isinstance(names, str):
                    names = names.replace(",", " ").split()
                found += [f"{node.name}.{name}" for name in names]
    return found


def unread_fields(modules, readers):
    """(module, "Class.field") for each record field in ``modules`` (name
    -> source) whose name no source in ``readers`` reads as an attribute.

    Only the name is matched, so a field whose name another class also
    uses (``subgroup``, ``witnesses``) passes on a read of either.
    """
    read = {
        node.attr
        for source in readers
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        (module, q)
        for module, source in modules.items()
        for q in dataclass_fields(source)
        if q.rpartition(".")[2] not in read
    ]


def test_unread_field_check_sees_reads_and_misses():
    library = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Point:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    def norm(self):\n"
        "        return self.x\n"
        "@dataclass\n"
        "class Box:\n"
        "    size: int\n"
        "class Plain:\n"
        "    z: int\n"
        "class Pair(namedtuple('Pair', 'left right', defaults=(0,))):\n"
        "    __slots__ = ()\n"
        "    def swap(self):\n"
        "        return Pair(self.right, self.left)\n"
        "class Span(namedtuple('Span', ['lo', 'hi'])):\n"
        "    width: int\n"
    )
    reader = "p.y = 1\nsize = 2\nSpan(lo=1, hi=2)\n"
    assert dataclass_fields(library) == [
        "Point.x", "Point.y", "Box.size", "Pair.left", "Pair.right", "Span.lo", "Span.hi",
    ]
    assert unread_fields({"m": library}, [library, reader]) == [
        ("m", "Point.y"),
        ("m", "Box.size"),
        ("m", "Span.lo"),
        ("m", "Span.hi"),
    ]


# __init__.py only re-exports, so its imports do not count as reads.
READERS = [path.read_text() for path in SOURCES] + [
    path.read_text()
    for folder in ("demos", "benchmarks")
    for path in sorted((ROOT / folder).rglob("*.py"))
]
MODULES = {path.stem: path.read_text() for path in SOURCES}
FIELDS = {(module, q) for module, source in MODULES.items() for q in dataclass_fields(source)}


def test_field_check_sees_every_record_field():
    # Without this, a record form the parser does not know passes the
    # field check with nothing to check.
    loaded = {
        (module, f"{cls.__name__}.{name}")
        for module in MODULES
        for cls in vars(importlib.import_module(f"aft.{module}")).values()
        if isinstance(cls, type) and issubclass(cls, tuple) and cls.__module__ == f"aft.{module}"
        for name in cls._fields
    }
    assert loaded and FIELDS == loaded


def test_every_definition_is_read():
    traced = traced_names((ROOT / "benchmarks" / "tracer.py").read_text())
    shared = shared_methods(MODULES)
    unread = set(unread_definitions(MODULES, READERS, traced))
    unread |= shared - set(SHARED_READERS)
    allowed = set(UNREAD_ALLOWED) - FIELDS
    assert sorted(unread - allowed) == []
    assert sorted(allowed - unread) == []
    assert sorted(set(SHARED_READERS) - shared) == []


def test_every_dataclass_field_is_read():
    unread = set(unread_fields(MODULES, READERS))
    allowed = set(UNREAD_ALLOWED) & FIELDS
    assert sorted(unread - allowed) == []
    assert sorted(allowed - unread) == []


@pytest.mark.parametrize(
    "owner, reader", SHARED_READERS.items(), ids=lambda v: ".".join(v)
)
def test_shared_method_is_read_by_its_reader(owner, reader):
    path, function = reader
    name = owner[1].rpartition(".")[2]
    assert name in attributes_read((ROOT / path).read_text(), function)


# One CLI process: the package, the corpus and one suite through main.
CLI_RUN = """
import contextlib, io, sys
import aft, aft.cli
from aft.corpus import load_corpus
load_corpus()
with contextlib.redirect_stdout(io.StringIO()):
    code = aft.cli.main(["verify", "--suite", "lefschetz"])
print(code, *sorted({"dataclasses", "inspect", "fractions", "decimal"} & set(sys.modules)))
"""


def test_a_cli_run_loads_neither_dataclasses_nor_inspect():
    # Nor fractions and decimal: Character.rotation, their one reader,
    # imports Fraction when it is called.
    library = sorted((ROOT / "src" / "aft").glob("*.py"))
    assert [path.name for path in library if "dataclass" in path.read_text()] == []
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-S", "-c", CLI_RUN],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert run.stdout.split() == ["0"]
