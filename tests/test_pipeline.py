"""The pipeline's cohomology-trivializing stage against the matrix oracle.

The pipeline reads the subgroup acting trivially on H_*(X; Z) off the
Lefschetz numbers.  Here each action also carries its action on homology
as integer matrices, one list per canonical generator with one matrix
per degree, checked against Hopf's trace of every element, read on the
root action, and
``cohomology_trivializing_subgroup`` reduces them mod 3 as the second
route.
"""

import pytest

from aft.actions import SimplicialAction, lefschetz_number, subdivide_action
from aft.bounds import cohomology_trivializing_subgroup, element_matrix
from aft.corpus import CorpusEntry, boundary_simplex, corpus_entry, octahedron
from aft.groups import FiniteAbelianGroup
from aft.pipeline import pipeline
from aft.simplicial import build_complex
from subdivision_reference import make_good

ONE, MINUS_ONE = ((1,),), ((-1,),)

# The action on homology of every corpus action, by name.
CORPUS_MATRICES = {
    "trivial-z2-on-triangle": [[ONE, (), ()]],
    "z3-rotation-circle": [[ONE, ONE]],  # a rotation has degree +1
    "z2-swap-subdivided-edge": [[ONE, ()]],
    "z2-antipodal-hexagon": [[ONE, ONE]],  # the antipodal map of S^1: +1
    "z4-rotation-square": [[ONE, ONE]],
    "z2-antipodal-octahedron": [[ONE, (), MINUS_ONE]],  # of S^2: -1
    # The antipodal map and a half-turn act on H_2 by -1 and +1.
    "z2xz2-octahedron": [[ONE, (), MINUS_ONE], [ONE, (), ONE]],
}
ODD_COHOMOLOGY = {"z3-rotation-circle", "z2-antipodal-hexagon", "z4-rotation-square"}

Z2 = FiniteAbelianGroup([(2, [1])])


def wedge_of_two_spheres_swap():
    """Z/2 swapping the spheres of S^2 v S^2, two octahedra sharing vertex 0.

    Only vertex 0 is fixed, and no simplex lies in both spheres but {0},
    so the action is good.  It swaps the two classes of H_2.
    """
    second = {0: 0, 1: 6, 2: 7, 3: 8, 4: 9, 5: 10}
    sphere = octahedron()
    faces = [sphere.labelled(s) for s in sphere.maximal_simplices()]
    space = build_complex(faces + [tuple(second[v] for v in f) for f in faces])
    swap = {**second, **{w: v for v, w in second.items()}}
    entry = CorpusEntry(
        "z2-swap-s2-wedge-s2", "action", action=SimplicialAction(Z2, space, [swap]),
        metadata={"mu": 3},
    )
    return entry, [[ONE, (), ((0, 1), (1, 0))]]


def permutations_of_the_four_sphere():
    """Z/2 + Z/3 on sd(boundary of the 5-simplex) = S^4, by the
    transposition (0 1) and the 3-cycle (2 3 4).  The odd permutation
    reverses the orientation, so it acts on H_4 by -1."""
    group = FiniteAbelianGroup([(2, [1]), (3, [1])])
    space = boundary_simplex(5)
    fixed = {v: v for v in space.vertices}
    perms = [{**fixed, 0: 1, 1: 0}, {**fixed, 2: 3, 3: 4, 4: 2}]
    action = make_good(SimplicialAction(group, space, perms))
    entry = CorpusEntry("z2xz3-permuting-s4", "action", action=action, metadata={"mu": 5})
    return entry, [[ONE, (), (), (), MINUS_ONE], [ONE, (), (), (), ONE]]


def transpositions_of_the_four_sphere():
    """(Z/2)^3 on sd(boundary of the 5-simplex) = S^4, by the commuting
    transpositions (0 1), (2 3) and (4 5).  Each is odd, so each acts on
    H_4 by -1."""
    group = FiniteAbelianGroup([(2, [1, 1, 1])])
    space = boundary_simplex(5)
    fixed = {v: v for v in space.vertices}
    perms = [{**fixed, 2 * k: 2 * k + 1, 2 * k + 1: 2 * k} for k in range(3)]
    action = make_good(SimplicialAction(group, space, perms))
    entry = CorpusEntry(
        "z2cubed-transposing-s4", "action", action=action, metadata={"mu": 3}
    )
    return entry, [[ONE, (), (), (), MINUS_ONE]] * 3


def corpus_case(name, subdivisions=0):
    entry = corpus_entry(name)
    action = entry.action
    for _ in range(subdivisions):
        action = subdivide_action(action)
    subdivided = CorpusEntry(
        f"{name}-sd{subdivisions}", "action", action=action, metadata=entry.metadata
    )
    return subdivided, CORPUS_MATRICES[name]


CASES = {
    **{name: lambda name=name: corpus_case(name) for name in CORPUS_MATRICES},
    "z2-antipodal-octahedron-sd3": lambda: corpus_case("z2-antipodal-octahedron", 3),
    "z2xz2-octahedron-sd3": lambda: corpus_case("z2xz2-octahedron", 3),
    "z2-swap-s2-wedge-s2": wedge_of_two_spheres_swap,
    "z2xz3-permuting-s4": permutations_of_the_four_sphere,
    "z2cubed-transposing-s4": transpositions_of_the_four_sphere,
}


def matrix_trace(matrices, g):
    """sum over d of (-1)^d tr(g | H_d) from the per-generator matrices."""
    total = 0
    for d in range(len(matrices[0])):
        image = element_matrix(matrices, g.residues, d)
        total += (-1) ** d * sum(image[i][i] for i in range(len(image)))
    return total


@pytest.mark.parametrize("case", CASES)
def test_trivializing_stage_matches_the_matrix_oracle(case):
    entry, matrices = CASES[case]()
    action = entry.action
    for g in action.group.elements():
        assert matrix_trace(matrices, g) == lefschetz_number(action, g), g
    if case in ODD_COHOMOLOGY:
        with pytest.raises(ValueError, match="odd cohomology"):
            pipeline(entry)
        return
    oracle, bound = cohomology_trivializing_subgroup(action.group, matrices)
    stage = pipeline(entry)["stages"][0]
    assert stage == {
        "stage": "cohomology-trivializing", "index": oracle.index, "bound": bound
    }


@pytest.mark.parametrize(
    "build, size, index, trivializing_index",
    [
        (wedge_of_two_spheres_swap, 51, 2, 2),
        (permutations_of_the_four_sphere, 4682, 6, 2),
        (transpositions_of_the_four_sphere, 4682, 8, 2),
    ],
    ids=["s2-wedge-s2", "permuting-s4", "transposing-s4"],
)
def test_actions_outside_the_corpus_pass_the_pipeline(
    build, size, index, trivializing_index
):
    entry, _ = build()
    assert entry.action.space.num_simplices() == size
    report = pipeline(entry)
    assert report["passed"]
    assert (report["index"], report["stages"][0]["index"]) == (index, trivializing_index)
