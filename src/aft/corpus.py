"""Curated corpus of complexes, good actions and linear models.

Every entry carries metadata (Mann-Su constant, expected homology,
no-odd-cohomology flag and expected Euler characteristic).
``load_corpus`` recomputes the cheap invariants and raises on any
mismatch, so the metadata cannot silently drift from the constructions:
the Euler characteristic and the no-odd-cohomology flag of every entry
(a complex's and an action's space from their homology over Z, a model
from its Betti numbers), a complex's Betti numbers, torsion and mod-2
Betti numbers where given, and the goodness of every action.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache

from .actions import SimplicialAction, subdivide_action, validate_good
from .groups import Character, FiniteAbelianGroup
from .linear import (
    DISK,
    SPHERE,
    LinearActionModel,
    RealRepresentation,
    Summand,
)
from .simplicial import build_complex, homology


class CorpusEntry(
    namedtuple("CorpusEntry", "name kind complex_ action model metadata")
):
    """``kind`` is "complex", "action" or "model"."""

    __slots__ = ()

    def __new__(
        cls, name, kind, complex_=None, action=None, model=None, metadata=None
    ):
        metadata = {} if metadata is None else metadata
        return tuple.__new__(cls, (name, kind, complex_, action, model, metadata))


def simplex(n):
    """The full n-simplex on vertices 0..n."""
    return build_complex([tuple(range(n + 1))])


def boundary_simplex(n):
    """The boundary of the n-simplex, a triangulated (n-1)-sphere."""
    verts = tuple(range(n + 1))
    return build_complex(list(itertools.combinations(verts, n)))


def octahedron():
    """Boundary of the 3-dimensional cross-polytope.

    Vertices 0/1, 2/3, 4/5 are antipodal pairs; the 8 faces pick one
    vertex from each pair.
    """
    faces = [
        (a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)
    ]
    return build_complex(faces)


def hexagon():
    """A 6-cycle, the smallest circle with a free antipodal involution."""
    return build_complex([(i, (i + 1) % 6) for i in range(6)])


def square():
    """A 4-cycle carrying the rotation action of Z/4."""
    return build_complex([(i, (i + 1) % 4) for i in range(4)])


def projective_plane():
    """The 6-vertex triangulation of the real projective plane.

    A closed surface with chi = 1: every one of the 15 edges of K6 lies
    in exactly two of the 10 faces.  Negative control for the
    no-odd-cohomology paths (H_1 = Z/2).
    """
    faces = [
        (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
        (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
    ]
    return build_complex(faces)


def disjoint_union(*complexes):
    """Relabels vertices as (piece index, vertex) and merges."""
    simplices = []
    for i, cx in enumerate(complexes):
        for s in cx.maximal_simplices():
            simplices.append(tuple((i, v) for v in cx.labelled(s)))
    return build_complex(simplices)


def _cyclic_perm(cycle):
    return {v: cycle[(i + 1) % len(cycle)] for i, v in enumerate(cycle)}


def _complex_entries():
    entries = []
    for n in range(7):
        entries.append(
            CorpusEntry(
                f"simplex-{n}",
                "complex",
                complex_=simplex(n),
                metadata={
                    "expected_chi": 1,
                    "expected_betti_Z": [1] + [0] * n,
                    "no_odd_cohomology": True,
                    "mu": n,
                },
            )
        )
    for m in range(4):
        n = 2 * m + 1
        betti = [1] + [0] * (n - 2) + [1] if n >= 2 else [2]
        entries.append(
            CorpusEntry(
                f"sphere-{n - 1}",
                "complex",
                complex_=boundary_simplex(n),
                metadata={
                    "expected_chi": 2,
                    "expected_betti_Z": betti,
                    "no_odd_cohomology": True,
                    "mu": n,
                },
            )
        )
    entries.append(
        CorpusEntry(
            "octahedron",
            "complex",
            complex_=octahedron(),
            metadata={
                "expected_chi": 2,
                "expected_betti_Z": [1, 0, 1],
                "no_odd_cohomology": True,
                "mu": 3,
            },
        )
    )
    entries.append(
        CorpusEntry(
            "hexagon",
            "complex",
            complex_=hexagon(),
            metadata={
                "expected_chi": 0,
                "expected_betti_Z": [1, 1],
                "no_odd_cohomology": False,
                "mu": 2,
            },
        )
    )
    entries.append(
        CorpusEntry(
            "projective-plane-6",
            "complex",
            complex_=projective_plane(),
            metadata={
                "expected_chi": 1,
                "expected_betti_Z": [1, 0, 0],
                "expected_torsion": {1: [2]},
                "expected_betti_mod_2": [1, 1, 1],
                "no_odd_cohomology": False,
                "mu": 2,
            },
        )
    )
    entries.append(
        CorpusEntry(
            "two-points",
            "complex",
            complex_=disjoint_union(simplex(0), simplex(0)),
            metadata={
                "expected_chi": 2,
                "expected_betti_Z": [2],
                "no_odd_cohomology": True,
                "mu": 1,
            },
        )
    )
    entries.append(
        CorpusEntry(
            "two-triangles",
            "complex",
            complex_=disjoint_union(simplex(2), simplex(2)),
            metadata={
                "expected_chi": 2,
                "expected_betti_Z": [2, 0, 0],
                "no_odd_cohomology": True,
                "mu": 3,
            },
        )
    )
    return entries


def _action_entries():
    entries = []
    z2 = FiniteAbelianGroup([(2, [1])])
    z3 = FiniteAbelianGroup([(3, [1])])
    z4 = FiniteAbelianGroup([(2, [2])])
    z2z2 = FiniteAbelianGroup([(2, [1, 1])])

    tri = simplex(2)
    entries.append(
        CorpusEntry(
            "trivial-z2-on-triangle",
            "action",
            action=SimplicialAction(z2, tri, [{v: v for v in tri.vertices}]),
            metadata={
                "expected_chi": 1,
                "no_odd_cohomology": True,
                "mu": 2,
            },
        )
    )

    circle3 = boundary_simplex(2)
    entries.append(
        CorpusEntry(
            "z3-rotation-circle",
            "action",
            action=SimplicialAction(z3, circle3, [_cyclic_perm((0, 1, 2))]),
            metadata={
                "expected_chi": 0,
                "no_odd_cohomology": False,
                "mu": 2,
            },
        )
    )

    # Barycentric subdivision of an edge: path 0 - (0,1) - 1; the swap
    # fixes the midpoint, so the action is good.
    raw_swap = SimplicialAction(z2, simplex(1), [{0: 1, 1: 0}])
    entries.append(
        CorpusEntry(
            "z2-swap-subdivided-edge",
            "action",
            action=subdivide_action(raw_swap),
            metadata={
                "expected_chi": 1,
                "no_odd_cohomology": True,
                "mu": 1,
            },
        )
    )

    entries.append(
        CorpusEntry(
            "z2-antipodal-hexagon",
            "action",
            action=SimplicialAction(
                z2, hexagon(), [{i: (i + 3) % 6 for i in range(6)}]
            ),
            metadata={
                "expected_chi": 0,
                "no_odd_cohomology": False,
                "mu": 2,
            },
        )
    )

    entries.append(
        CorpusEntry(
            "z4-rotation-square",
            "action",
            action=SimplicialAction(z4, square(), [_cyclic_perm((0, 1, 2, 3))]),
            metadata={
                "expected_chi": 0,
                "no_odd_cohomology": False,
                "mu": 2,
            },
        )
    )

    oct_ = octahedron()
    antipodal = {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}
    entries.append(
        CorpusEntry(
            "z2-antipodal-octahedron",
            "action",
            action=SimplicialAction(z2, oct_, [antipodal]),
            metadata={
                "expected_chi": 2,
                "no_odd_cohomology": True,
                "mu": 3,
            },
        )
    )

    half_turn = {0: 1, 1: 0, 2: 3, 3: 2, 4: 4, 5: 5}
    entries.append(
        CorpusEntry(
            "z2xz2-octahedron",
            "action",
            action=SimplicialAction(z2z2, oct_, [antipodal, half_turn]),
            metadata={
                "expected_chi": 2,
                "no_odd_cohomology": True,
                "mu": 3,
            },
        )
    )
    return entries


def _model_entries():
    entries = []
    z2 = FiniteAbelianGroup([(2, [1])])
    z3 = FiniteAbelianGroup([(3, [1])])
    z4 = FiniteAbelianGroup([(2, [2])])
    z6 = FiniteAbelianGroup([(2, [1]), (3, [1])])

    def disk(group, summands):
        return LinearActionModel(RealRepresentation(group, tuple(summands)), DISK)

    def sphere(group, summands):
        return LinearActionModel(RealRepresentation(group, tuple(summands)), SPHERE)

    entries.append(
        CorpusEntry(
            "model-z3-rotation-disk",
            "model",
            model=disk(z3, [Summand("rotation", Character(z3, (1,)))]),
            metadata={"expected_chi": 1, "no_odd_cohomology": True, "mu": 1},
        )
    )
    entries.append(
        CorpusEntry(
            "model-z2-reflection-disk",
            "model",
            model=disk(
                z2,
                [Summand("trivial"), Summand("sign", Character(z2, (1,)))],
            ),
            metadata={"expected_chi": 1, "no_odd_cohomology": True, "mu": 2},
        )
    )
    entries.append(
        CorpusEntry(
            "model-z4-rotation-disk",
            "model",
            model=disk(z4, [Summand("rotation", Character(z4, (1,)))]),
            metadata={"expected_chi": 1, "no_odd_cohomology": True, "mu": 2},
        )
    )
    entries.append(
        CorpusEntry(
            "model-z6-rotation-disk",
            "model",
            model=disk(
                z6,
                [
                    Summand("trivial"),
                    Summand("rotation", Character(z6, (1, 1))),
                ],
            ),
            metadata={"expected_chi": 1, "no_odd_cohomology": True, "mu": 3},
        )
    )
    entries.append(
        CorpusEntry(
            "model-z2-antipodal-sphere",
            "model",
            model=sphere(
                z2,
                [Summand("sign", Character(z2, (1,))) for _ in range(3)],
            ),
            metadata={"expected_chi": 2, "no_odd_cohomology": True, "mu": 3},
        )
    )
    entries.append(
        CorpusEntry(
            "model-z3-rotation-sphere",
            "model",
            model=sphere(
                z3,
                [
                    Summand("rotation", Character(z3, (1,))),
                    Summand("trivial"),
                ],
            ),
            metadata={"expected_chi": 2, "no_odd_cohomology": True, "mu": 1},
        )
    )
    return entries


def _check_entry(entry):
    meta = entry.metadata
    if entry.kind == "complex":
        cx = entry.complex_
        if cx.euler_characteristic() != meta["expected_chi"]:
            raise AssertionError(f"{entry.name}: Euler characteristic mismatch")
        profile = homology(cx)
        if profile.ranks() != list(meta["expected_betti_Z"]):
            raise AssertionError(
                f"{entry.name}: Betti mismatch {profile.ranks()}"
            )
        if profile.has_no_odd_cohomology() != meta["no_odd_cohomology"]:
            raise AssertionError(f"{entry.name}: no-odd-cohomology flag wrong")
        for deg, tors in meta.get("expected_torsion", {}).items():
            if list(profile.betti_Z[deg][1]) != list(tors):
                raise AssertionError(f"{entry.name}: torsion mismatch")
        if "expected_betti_mod_2" in meta:
            if profile.betti_mod_p[2] != list(meta["expected_betti_mod_2"]):
                raise AssertionError(f"{entry.name}: mod-2 Betti mismatch")
    elif entry.kind == "action":
        action = entry.action
        if not validate_good(action).is_good:
            raise AssertionError(f"{entry.name}: corpus action is not good")
        if action.space.euler_characteristic() != meta["expected_chi"]:
            raise AssertionError(f"{entry.name}: Euler characteristic mismatch")
        profile = homology(action.space, primes=())
        if profile.has_no_odd_cohomology() != meta["no_odd_cohomology"]:
            raise AssertionError(f"{entry.name}: no-odd-cohomology flag wrong")
    elif entry.kind == "model":
        model = entry.model
        if model.euler_characteristic() != meta["expected_chi"]:
            raise AssertionError(f"{entry.name}: Euler characteristic mismatch")
        # A model's Betti numbers are torsion-free.
        if any(model.betti()[1::2]) == meta["no_odd_cohomology"]:
            raise AssertionError(f"{entry.name}: no-odd-cohomology flag wrong")
    else:
        raise AssertionError(f"{entry.name}: unknown kind {entry.kind}")


@lru_cache(maxsize=1)
def load_corpus():
    """All entries, consistency-checked; cached after the first load."""
    entries = _complex_entries() + _action_entries() + _model_entries()
    names = [e.name for e in entries]
    if len(set(names)) != len(names):
        raise AssertionError("duplicate corpus entry names")
    for entry in entries:
        _check_entry(entry)
    return tuple(entries)


def corpus_entry(name):
    for entry in load_corpus():
        if entry.name == name:
            return entry
    raise KeyError(name)


def corpus_actions():
    return [e for e in load_corpus() if e.kind == "action"]
