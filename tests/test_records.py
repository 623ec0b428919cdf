"""The library's result records are immutable values.

Each record is a subclass of a ``namedtuple`` with ``__slots__ = ()``: no
field can be assigned and no attribute added, records with equal fields
are equal and hash alike (when every field hashes), and a record with a
dict field gets a fresh dict when the field is left out.  The checks a
record makes on its fields raise the same messages wherever it is built.
"""

import inspect
import sys

import pytest

import aft.actions
from aft.actions import DivisibilityVerdict, validate_good
from aft.bounds import BoundsConfig, constants_report, minkowski_injectivity_check
from aft.corpus import CorpusEntry, corpus_actions
from aft.groups import Character, FiniteAbelianGroup
from aft.linear import (
    DISK,
    SPHERE,
    DescentStep,
    LinearActionModel,
    RealRepresentation,
    Summand,
    disk_theorem,
)
from aft.simplicial import homology
from aft.suites import CaseResult, run_suite

MODULES = ("actions", "bounds", "corpus", "linear", "simplicial", "suites")
Z2 = FiniteAbelianGroup([(2, [1])])
Z3 = FiniteAbelianGroup([(3, [1])])


def _samples():
    """One record of each class, built by the library where it can be."""
    entry = corpus_actions()[0]
    cfg = BoundsConfig(2, (1, 0, 1), {}, frozenset(), 2)
    rotation = Summand("rotation", Character(Z3, (1,)))
    model = LinearActionModel(RealRepresentation(Z3, (Summand("trivial"), rotation)), DISK)
    report = run_suite("lefschetz")
    return [
        validate_good(entry.action),
        aft.actions._stabilizers(entry.action),
        DivisibilityVerdict("divisible", 0, 4),
        cfg,
        constants_report(cfg),
        minkowski_injectivity_check([((1,),), ((-1,),)]),
        entry,
        rotation,
        model.rep,
        model,
        DescentStep(rotation.character, 3, 1),
        disk_theorem(model),
        homology(entry.action.space),
        report.cases[0],
        report,
    ]


SAMPLES = _samples()


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


def test_every_record_class_has_a_sample():
    records = {
        cls
        for name in MODULES
        for _, cls in inspect.getmembers(sys.modules[f"aft.{name}"], inspect.isclass)
        if cls.__module__ == f"aft.{name}" and issubclass(cls, tuple)
    }
    assert len(records) == 15
    assert {type(r) for r in SAMPLES} == records


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned_or_added(record):
    assert type(record).__slots__ == ()
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_equal_fields_give_equal_records_and_hashes(record):
    copy = type(record)(*record)
    assert copy == record and not copy != record
    assert repr(copy) == repr(record)
    assert repr(record).startswith(f"{type(record).__name__}({record._fields[0]}=")
    if all(map(_hashable, record)):
        assert hash(copy) == hash(record)
    else:
        with pytest.raises(TypeError):
            hash(record)


def test_theorem_result_index_is_the_subgroup_index():
    result = next(r for r in SAMPLES if type(r).__name__ == "TheoremResult")
    assert result.index == result.subgroup.index


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: CorpusEntry("a", "complex"), "metadata"),
        (lambda: CaseResult("a", True), "details"),
    ],
    ids=["CorpusEntry", "CaseResult"],
)
def test_default_dict_is_not_shared(make, field):
    first, second = make(), make()
    getattr(first, field)["key"] = 1
    assert getattr(second, field) == {} and getattr(make(), field) == {}


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Summand("spin"), "unknown summand kind 'spin'"),
        (lambda: Summand("trivial", Character(Z3, (1,))), "trivial summand with nontrivial character"),
        (lambda: Summand("sign", Character(Z3, (1,))), "sign summand needs a character of order 2"),
        (lambda: Summand("rotation", Character(Z3, (0,))), "rotation summand needs a character of order >= 3"),
        (
            lambda: RealRepresentation(Z2, (Summand("rotation", Character(Z3, (1,))),)),
            "summand character of a different group",
        ),
        (lambda: LinearActionModel(RealRepresentation(Z2, ()), "torus"), "unknown shape 'torus'"),
        (
            lambda: LinearActionModel(RealRepresentation(Z2, ()), SPHERE),
            "sphere model needs a representation of dim >= 1",
        ),
        (lambda: BoundsConfig(2, (1, 0), {}, frozenset(), 1), "a space of dimension 2 has 3 Betti numbers, not 2"),
        (lambda: BoundsConfig(0, (0,), {}, frozenset(), 1), "b_0 = 0: the space is empty"),
        (lambda: BoundsConfig(0, (1,), {}, frozenset(), 0), "mu 0 is not a positive integer"),
        (
            lambda: BoundsConfig(1, (1, 0), {3: (1, 1)}, frozenset(), 1),
            "mod-3 Betti numbers [1, 1] contradict universal coefficients with Betti numbers [1, 0]",
        ),
    ],
)
def test_construction_checks_raise_their_messages(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message
