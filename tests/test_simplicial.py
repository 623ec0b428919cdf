"""Complexes, homology over Z and F_p, subdivisions, components."""

import heapq
import itertools
import random
from collections import defaultdict
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coreduction_reference
import elimination_reference
import homology_reference
import subdivision_reference as reference
from aft import integermat, simplicial
from aft.actions import SimplicialAction, fixed_subcomplex
from aft.corpus import (
    boundary_simplex,
    disjoint_union,
    hexagon,
    load_corpus,
    octahedron,
    projective_plane,
    simplex,
)
from aft.groups import FiniteAbelianGroup, Subgroup
from aft.integermat import rank_mod_p, reduce_chain_complex, smith_diagonal
from aft.simplicial import (
    SimplicialComplex,
    barycentric_subdivision,
    boundary_entries,
    build_complex,
    complex_from_json,
    complex_to_json,
    connected_components,
    homology,
)


def test_build_complex_closure_and_validation():
    cx = build_complex([(0, 1, 2)])
    assert cx.num_simplices() == 7
    assert {(1, 2), (0,)} <= set(cx.simplices())
    with pytest.raises(ValueError):
        build_complex([()])
    with pytest.raises(ValueError):
        build_complex([(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="repeated vertex"):
        build_complex([(0, 0, 1)])
    with pytest.raises(ValueError, match="repeated vertex"):
        SimplicialComplex([(0,), (0, 0)])
    with pytest.raises(ValueError, match="empty simplex"):
        SimplicialComplex([()])
    with pytest.raises(ValueError, match="face .* missing"):
        SimplicialComplex([(0, 1)])


@given(
    st.lists(
        st.frozensets(st.integers(0, 9), min_size=1, max_size=5), unique=True, max_size=8
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_build_complex_is_the_checked_closure(maximal, rng):
    # Maximal simplices in random vertex order; the public constructor
    # checks every face of the closure, duplicates and all.
    maximal = [tuple(rng.sample(sorted(t), len(t))) for t in maximal]
    faces = [
        f for t in maximal for k in range(1, len(t) + 1) for f in itertools.combinations(t, k)
    ]
    built, checked = build_complex(maximal), SimplicialComplex(faces)
    assert built.labels == checked.labels
    assert built.dimension == checked.dimension
    for d in range(-1, checked.dimension + 2):
        assert built.simplices(d) == checked.simplices(d)


def test_maximal_simplices_round_trip():
    cx = octahedron()
    rebuilt = build_complex(cx.maximal_simplices())
    assert rebuilt == cx
    assert complex_from_json(complex_to_json(cx)).counts() == cx.counts()


def test_boundary_squares_to_zero():
    cx = boundary_simplex(4)
    for d in range(2, cx.dimension + 1):
        upper = boundary_entries(cx, d)
        lower = boundary_entries(cx, d - 1)
        # Compose sparse: (lower @ upper) must vanish.
        product = {}
        for i, j, v in upper:
            for r, c, w in lower:
                if c == i:
                    product[(r, j)] = product.get((r, j), 0) + w * v
        assert all(v == 0 for v in product.values())


def test_simplex_homology_is_trivial():
    for n in range(5):
        profile = homology(simplex(n))
        assert profile.ranks() == [1] + [0] * n
        assert not profile.torsion_primes()
        assert profile.euler == 1


@pytest.mark.parametrize("primes", [(4, 9), (1,), (0,), (-3,), (2, 6)])
def test_homology_rejects_non_primes(primes):
    with pytest.raises(ValueError, match="is not prime"):
        homology(projective_plane(), primes=primes)
    with pytest.raises(ValueError, match="is not prime"):
        homology(build_complex([]), primes=primes)


def test_sphere_homology():
    for n in (1, 3, 5, 7):
        profile = homology(boundary_simplex(n))
        expected = [2] if n == 1 else [1] + [0] * (n - 2) + [1]
        assert profile.ranks() == expected
        assert profile.euler == 2
        assert profile.has_no_odd_cohomology()


def test_projective_plane_homology():
    profile = homology(projective_plane())
    assert profile.ranks() == [1, 0, 0]
    assert profile.betti_Z[1][1] == (2,)
    assert profile.betti_mod_p[2] == [1, 1, 1]
    assert profile.betti_mod_p[3] == [1, 0, 0]
    assert not profile.has_no_odd_cohomology()
    # Universal coefficients: b_j(F_2) = b_j + t_j(2) + t_(j-1)(2).
    torsion_counts = [
        sum(1 for q in tors if q % 2 == 0) for _, tors in profile.betti_Z
    ]
    for j in range(3):
        expected = (
            profile.betti_Z[j][0]
            + torsion_counts[j]
            + (torsion_counts[j - 1] if j > 0 else 0)
        )
        assert profile.betti_mod_p[2][j] == expected


def test_universal_coefficients_check_ties_the_routes(monkeypatch):
    # F_p ranks that ignore torsion still satisfy the Euler check; only
    # universal coefficients against the integral route can reject them.
    monkeypatch.setattr(
        simplicial, "rank_mod_p", lambda entries, p: len(smith_diagonal(entries))
    )
    assert homology(projective_plane(), primes=(3,)).betti_mod_p[3] == [1, 0, 0]
    with pytest.raises(AssertionError, match="universal coefficients failed over F_2"):
        homology(projective_plane(), primes=(2,))


def test_octahedron_is_a_two_sphere():
    profile = homology(octahedron())
    assert profile.ranks() == [1, 0, 1]
    assert profile.has_no_odd_cohomology()


def test_hexagon_is_a_circle():
    profile = homology(hexagon())
    assert profile.ranks() == [1, 1]
    assert not profile.has_no_odd_cohomology()


def test_disjoint_union_adds_betti():
    cx = disjoint_union(simplex(0), simplex(0))
    assert homology(cx).ranks() == [2]
    comps = connected_components(cx)
    assert len(comps) == 2
    assert all(c.euler_characteristic() == 1 for c in comps)


def test_subdivision_preserves_homology():
    for cx in (simplex(2), boundary_simplex(2), octahedron()):
        sd = barycentric_subdivision(cx)
        assert sd.euler_characteristic() == cx.euler_characteristic()
        assert homology(sd).ranks() == homology(cx).ranks()
    # Simplex counts of Sd(triangle): 6 + 12 + 6 wedges.
    sd = barycentric_subdivision(simplex(2))
    assert sd.counts() == {0: 7, 1: 12, 2: 6}


def test_subdivided_projective_plane_keeps_torsion():
    sd = barycentric_subdivision(projective_plane())
    profile = homology(sd)
    assert profile.ranks() == [1, 0, 0]
    assert profile.betti_Z[1][1] == (2,)
    assert profile.betti_mod_p[2] == [1, 1, 1]


@pytest.mark.parametrize(
    "base", [octahedron, projective_plane, lambda: boundary_simplex(4)],
    ids=["octahedron", "projective-plane", "boundary-4-simplex"],
)
def test_subdivision_matches_all_pairs_reference(base):
    cx = base()
    for _ in range(2):
        sd = barycentric_subdivision(cx)
        assert sd == reference.subdivision(cx)
        _check_subdivision_numbering(cx, sd)
        cx = sd


def _check_subdivision_numbering(cx, sd):
    # Vertex i is the parent's i-th simplex, labelled by its labels, so
    # every chain is an increasing int tuple and each degree is sorted.
    assert sd.vertices == tuple(range(cx.num_simplices()))
    assert sd.labels == tuple(map(cx.labelled, cx.simplices()))
    for d in range(sd.dimension + 1):
        assert all(list(s) == sorted(set(s)) for s in sd.simplices(d))
        assert list(sd.simplices(d)) == sorted(sd.simplices(d))


def test_simplex_order_is_vertex_key_order():
    # ints by value, then strings, then tuples by their str(): the order
    # _vertex_key gives, in which the complex numbers its labels.
    cx = build_complex(
        [(10, "b", (1, 2)), (3, "a"), (("x",), 10), ("a", 10, (0,)), (2, 3)]
    )
    labelled = tuple(map(cx.labelled, cx.simplices()))
    assert labelled == reference.vertex_key_order(labelled)
    order = reference.vertex_key_order(cx.labelled(s) for s in cx.simplices(0))
    assert cx.labels == tuple(v for v, in order)
    assert cx.vertices == tuple(range(len(cx.labels)))
    _check_subdivision_numbering(cx, barycentric_subdivision(cx))
    number = {label: v for v, label in enumerate(cx.labels)}
    edges = set(cx.simplices(1))
    assert {tuple(sorted((number[(1, 2)], number["b"]))), (number[2], number[3])} <= edges
    assert tuple(sorted((number[2], number["a"]))) not in edges
    assert (len(cx.labels),) not in cx.simplices(0)


def test_equality_reads_labels():
    assert build_complex([(1, 2)]) != build_complex([(5, 7)])
    assert build_complex([(1, 2)]) == SimplicialComplex([(2,), (1,), (2, 1)])
    assert build_complex([(1, 2)]).simplices() == build_complex([(5, 7)]).simplices()


def _sd(cx, times):
    for _ in range(times):
        cx = barycentric_subdivision(cx)
    return cx


INDUCED_BASES = {e.name: e.complex_ for e in load_corpus() if e.kind == "complex"}
INDUCED_BASES["sd1-octahedron"] = _sd(octahedron(), 1)
INDUCED_BASES["sd2-octahedron"] = _sd(octahedron(), 2)


@pytest.mark.parametrize("name", sorted(INDUCED_BASES))
def test_induced_matches_rebuilt_subcomplex(name):
    cx = INDUCED_BASES[name]
    rng = random.Random(name)
    vertex_sets = [set(), set(cx.vertices)] + [
        {v for v in cx.vertices if rng.randrange(4) < share}
        for share in (1, 2, 3)
        for _ in range(3)
    ]
    for keep in vertex_sets:
        sub = cx.induced(keep)
        ref = SimplicialComplex(
            [cx.labelled(s) for s in cx.simplices() if set(s) <= keep]
        )
        # The parent's numbers, labels and order, and the same labelled
        # simplices as a complex built afresh.
        assert sub.labels is cx.labels
        assert sub.vertices == tuple(v for v in cx.vertices if v in keep)
        assert sub.dimension == ref.dimension
        for d in range(-1, cx.dimension + 2):
            assert sub.simplices(d) == tuple(
                s for s in cx.simplices(d) if set(s) <= keep
            )
            assert {frozenset(sub.labelled(s)) for s in sub.simplices(d)} == {
                frozenset(ref.labelled(s)) for s in ref.simplices(d)
            }
        assert sub == ref and hash(sub) == hash(ref)
        for d in range(cx.dimension + 1):
            members = set(sub.simplices(d))
            for s in cx.simplices(d):
                assert (s in members) == (set(s) <= keep)


@pytest.mark.parametrize("name", sorted(INDUCED_BASES))
def test_subcomplex_matches_rebuilt_subcomplex(name):
    # The faces of a few random simplices, shuffled: the subcomplex keeps
    # the parent's numbers, labels and order whatever order they come in.
    cx = INDUCED_BASES[name]
    rng = random.Random(f"subcomplex:{name}")
    every = cx.simplices()
    for size in (0, 1, 3, 10):
        closed = {
            face
            for s in rng.sample(every, min(size, len(every)))
            for k in range(1, len(s) + 1)
            for face in itertools.combinations(s, k)
        }
        given = list(closed)
        rng.shuffle(given)
        sub = cx.subcomplex(given)
        assert sub.labels is cx.labels
        assert sub.dimension == max(map(len, closed), default=0) - 1
        for d in range(-1, cx.dimension + 2):
            assert sub.simplices(d) == tuple(s for s in cx.simplices(d) if s in closed)
        assert sub == SimplicialComplex(map(cx.labelled, closed))


@st.composite
def random_complexes(draw):
    nverts = draw(st.integers(3, 6))
    nfaces = draw(st.integers(1, 5))
    faces = []
    for _ in range(nfaces):
        size = draw(st.integers(1, 3))
        face = draw(
            st.sets(st.integers(0, nverts - 1), min_size=size, max_size=size)
        )
        faces.append(tuple(sorted(face)))
    closed = set()
    for face in faces:
        for k in range(1, len(face) + 1):
            closed.update(itertools.combinations(face, k))
    return SimplicialComplex(closed)


@given(random_complexes())
@settings(max_examples=80, deadline=None)
def test_random_complex_euler_consistency(cx):
    # homology() cross-checks chi against Betti alternating sums over Z
    # and every F_p, and the F_p ranks against the integral answer through
    # universal coefficients; surviving the call is the property.
    profile = homology(cx)
    assert profile.euler == cx.euler_characteristic()
    assert sum(len(comp.vertices) for comp in connected_components(cx)) == len(
        cx.vertices
    )
    assert profile.ranks()[0] == len(connected_components(cx))


@given(random_complexes())
@settings(max_examples=60, deadline=None)
def test_random_subdivision_matches_reference(cx):
    assert barycentric_subdivision(cx) == reference.subdivision(cx)


def pseudo_projective_plane(m):
    """A disk whose boundary 3m-gon wraps m times around a triangle.

    Centre c, inner ring u_0..u_(3m-1), and the boundary vertex b_i glued
    to a_(i mod 3): H_1 = Z/m and H_2 = 0 (m = 2 is a projective plane).
    """
    n = 3 * m
    faces = []
    for i in range(n):
        j = (i + 1) % n
        faces += [
            ("c", f"u{i}", f"u{j}"),
            (f"u{i}", f"u{j}", f"a{j % 3}"),
            (f"u{i}", f"a{i % 3}", f"a{j % 3}"),
        ]
    return build_complex(faces)


def ladder_complexes():
    """sd^0..sd^3 of the octahedron and RP^2, sd^0..sd^2 of the 4-simplex's boundary."""
    out = []
    for name, build, top in (
        ("octahedron", octahedron, 3),
        ("projective-plane", projective_plane, 3),
        ("boundary-4-simplex", lambda: boundary_simplex(4), 2),
    ):
        cx = build()
        for level in range(top + 1):
            out.append(pytest.param(cx, id=f"{name}-sd{level}"))
            cx = barycentric_subdivision(cx) if level < top else None
    return out


def corpus_complexes():
    return [
        pytest.param(e.complex_, id=e.name) for e in load_corpus() if e.kind == "complex"
    ]


def suspension(cx):
    """The join of ``cx`` with two points; its reduced homology is cx's,
    one degree up."""
    return build_complex(
        [cx.labelled(s) + (pole,) for s in cx.maximal_simplices() for pole in "NS"]
    )


def reduce(cx):
    return reduce_chain_complex(
        [len(cx.simplices(d)) for d in range(cx.dimension + 1)],
        (boundary_entries(cx, d) for d in range(1, cx.dimension + 1)),
    )


def dict_route_pivots(cx):
    """The unit pivots of each d_d, as the reduction made them when d_d was
    a dict (row, col) -> sign indexed in its insertion order."""
    removed = [set() for _ in range(cx.dimension + 1)]
    pivots = []
    for d in range(1, cx.dimension + 1):
        rows, cols = defaultdict(dict), defaultdict(set)
        for (r, c), v in homology_reference.boundary_matrix(cx, d).items():
            if r not in removed[d - 1]:
                rows[r][c] = v
                cols[c].add(r)
        heap = [(len(row), r) for r, row in rows.items()]
        heapq.heapify(heap)
        pivots.append(integermat._unit_pivots(rows, cols, heap))
        for r, c, _ in pivots[-1]:
            removed[d - 1].add(r)
            removed[d].add(c)
    return pivots


@pytest.mark.parametrize(
    "cx",
    ladder_complexes()
    + corpus_complexes()
    + [pytest.param(e.action.space, id=e.name) for e in load_corpus() if e.kind == "action"],
)
def test_reduction_pivots_as_the_dict_route_did(monkeypatch, cx):
    for d in range(1, cx.dimension + 1):
        matrix = homology_reference.boundary_matrix(cx, d)
        assert boundary_entries(cx, d) == [(r, c, v) for (r, c), v in matrix.items()]
    expected = dict_route_pivots(cx)
    pivots = []
    original = integermat._unit_pivots

    def recording(*args):
        pivots.append(original(*args))
        return pivots[-1]

    monkeypatch.setattr(integermat, "_unit_pivots", recording)
    reduce(cx)
    assert pivots == expected


@pytest.mark.parametrize("m, torsion", [(2, (2,)), (3, (3,)), (4, (4,)), (6, (2, 3))])
def test_pseudo_projective_plane_torsion(m, torsion):
    profile = homology(pseudo_projective_plane(m))
    assert profile.betti_Z == ((1, ()), (0, torsion), (0, ()))


@pytest.mark.parametrize(
    "cx",
    ladder_complexes()
    + corpus_complexes()
    # H_2 = Z/2; the coreduction stalls in degree 3, leaving cells [1, 0, 5, 5].
    + [pytest.param(suspension(projective_plane()), id="suspended-projective-plane")],
)
def test_homology_matches_unreduced_reference(cx):
    assert homology(cx) == homology_reference.homology(cx)


@pytest.mark.parametrize("cx", ladder_complexes())
def test_ladder_residual_is_betti_sized(cx):
    # A minimal free complex has b_d + t_d + t_(d-1) cells in degree d,
    # where t_d counts the cyclic torsion summands of H_d.
    cells, residual = reduce(cx)
    betti = homology(cx).betti_Z
    for d, (rank, torsion) in enumerate(betti):
        below = len(betti[d - 1][1]) if d else 0
        assert len(cells[d]) == rank + len(torsion) + below
    assert all(all(abs(v) > 1 for v in r.values()) for r in residual)


def cone(cx, apex):
    return build_complex([cx.labelled(s) + (apex,) for s in cx.maximal_simplices()])


@pytest.mark.parametrize("apex", [-1, "apex"], ids=["apex-first", "apex-last"])
@pytest.mark.parametrize(
    "base",
    [octahedron, projective_plane, lambda: barycentric_subdivision(projective_plane())],
    ids=["octahedron", "projective-plane", "sd-projective-plane"],
)
def test_cone_pivots_above_degree_one_are_free_faces(monkeypatch, base, apex):
    # The coreduction takes a spanning tree of d_1 from one seed and every
    # pair above degree 1 off the face poset, so the matrix core is left a
    # single vertex and clears no column.
    clears = []
    original = integermat._clear_column

    def counting(*args):
        clears.append(args)
        return original(*args)

    monkeypatch.setattr(integermat, "_clear_column", counting)
    cx = cone(base(), apex)
    assert homology(cx).betti_Z == ((1, ()),) + ((0, ()),) * cx.dimension
    assert clears == []


def test_coreduction_leaves_a_sphere_its_betti_cells():
    cx = barycentric_subdivision(barycentric_subdivision(boundary_simplex(4)))
    sizes, boundaries = simplicial._coreduce(cx)
    assert sizes == [1, 0, 0, 1]
    assert boundaries == [[], [], []]


def test_coreduction_of_the_empty_complex():
    # homology returns before coreducing it, but _coreduce itself is total.
    assert simplicial._coreduce(build_complex([])) == ([], [])


def test_coreduction_seeds_one_vertex_per_component():
    # An isolated vertex, a circle and a projective plane: three seeds, and
    # the torsion of RP^2 goes through the matrix core.
    cx = disjoint_union(simplex(0), hexagon(), projective_plane())
    assert simplicial._coreduce(cx)[0][0] == 3
    profile = homology(cx)
    assert profile == homology_reference.homology(cx)
    assert profile.betti_Z == ((3, ()), (1, (2,)), (0, ()))


def fixed_set_off_the_vertex_positions():
    """Z/2 swaps the antipodal vertices 0 and 1 of an octahedron and fixes a
    projective plane beside it: the fixed set keeps the parent's vertex
    numbers 2..5 and 6..11, which are not its positions 0..9."""
    parent = disjoint_union(octahedron(), projective_plane())
    number = {label: v for v, label in enumerate(parent.labels)}
    swap = {number[(0, 0)]: number[(0, 1)], number[(0, 1)]: number[(0, 0)]}
    group = FiniteAbelianGroup([(2, [1])])
    action = SimplicialAction(group, parent, [{v: swap.get(v, v) for v in parent.vertices}])
    return fixed_subcomplex(action, Subgroup.whole(group))


def test_coreduction_of_a_fixed_set_off_the_vertex_positions():
    fixed = fixed_set_off_the_vertex_positions()
    assert fixed.vertices == tuple(range(2, 12))
    profile = homology(fixed)
    assert profile == homology_reference.homology(fixed)
    assert profile.betti_Z == ((2, ()), (1, (2,)), (0, ()))


def test_stalled_coreduction_is_finished_by_the_matrix_core():
    # On sd^3 RP^2 the queue drains with edges and triangles left, each
    # triangle holding two or more alive edges; the matrix core reduces
    # them to the Z/2 in H_1.
    cx = projective_plane()
    for _ in range(3):
        cx = barycentric_subdivision(cx)
    sizes, _ = simplicial._coreduce(cx)
    assert sizes[0] == 1 and sizes[1] == sizes[2] > 1
    assert homology(cx) == homology_reference.homology(cx)


def test_stalled_coreduction_leaves_the_core_its_schur_work(monkeypatch):
    # The 131 edges and 131 triangles that sd^3 RP^2 keeps: the reduction
    # over Z clears a column at each of its 130 unit pivots, none of them
    # alone in its column, and the Smith diagonal one more with the Euclid
    # step that leaves the 2.  A pivot taken without its Schur update, or
    # a clear spent on a lone pivot, changes the count.
    clears = []
    original = integermat._clear_column

    def counting(*args):
        clears.append(args)
        return original(*args)

    monkeypatch.setattr(integermat, "_clear_column", counting)
    cx = projective_plane()
    for _ in range(3):
        cx = barycentric_subdivision(cx)
    assert homology(cx).betti_Z == ((1, ()), (0, (2,)), (0, ()))
    assert len(clears) == 131


@given(
    st.lists(
        st.frozensets(st.integers(0, 11), min_size=1, max_size=4),
        unique=True,
        min_size=1,
        max_size=10,
    )
)
@settings(max_examples=150, deadline=None)
def test_coreduction_matches_the_reference_on_random_complexes(simplices):
    cx = build_complex([tuple(sorted(s)) for s in simplices])
    sizes, _ = simplicial._coreduce(cx)
    assert sizes[0] == len(connected_components(cx))
    assert sum((-1) ** d * n for d, n in enumerate(sizes)) == cx.euler_characteristic()
    assert homology(cx) == homology_reference.homology(cx)
    assert_pairs_off_as_the_reference(cx)


@pytest.mark.parametrize(
    "cx",
    [c for c in ladder_complexes() if c.id.endswith(("sd0", "sd1"))]
    + [pytest.param(e.action.space, id=e.name) for e in load_corpus() if e.kind == "action"]
    + corpus_complexes(),
)
def test_free_face_elimination_matches_reference(cx):
    # The reference scans for a smallest entry and shares no pivot rule.
    def prime_powers(diagonal):
        return sorted(q for d in diagonal for q in homology_reference.prime_power_split(d))

    for d in range(1, cx.dimension + 1):
        entries = homology_reference.as_dict(boundary_entries(cx, d))
        diagonal = smith_diagonal(entries)
        expected = elimination_reference.smith_diagonal(entries)
        assert len(diagonal) == len(expected)
        assert prime_powers(diagonal) == prime_powers(expected)
        for p in (2, 3):
            assert rank_mod_p(entries, p) == elimination_reference.rank_mod_p(entries, p)


@st.composite
def glued_complexes(draw):
    """Random simplices glued to pieces with torsion, on shared vertex labels."""
    pieces = draw(
        st.lists(
            st.sampled_from(["rp2", "sd-rp2", "moore-3", "moore-4", "octahedron"]),
            max_size=2,
        )
    )
    labels = draw(st.permutations(range(40)))
    faces = set()
    for k, piece in enumerate(pieces):
        cx = {
            "rp2": projective_plane,
            "sd-rp2": lambda: barycentric_subdivision(projective_plane()),
            "moore-3": lambda: pseudo_projective_plane(3),
            "moore-4": lambda: pseudo_projective_plane(4),
            "octahedron": octahedron,
        }[piece]()
        rename = {v: labels[(i + 13 * k) % 40] for i, v in enumerate(cx.vertices)}
        faces |= {tuple(sorted(rename[v] for v in s)) for s in cx.maximal_simplices()}
    for face in draw(
        st.lists(st.sets(st.integers(0, 15), min_size=1, max_size=4), max_size=6)
    ):
        faces.add(tuple(sorted(face)))
    return build_complex(sorted(faces))


@given(glued_complexes())
@settings(max_examples=60, deadline=None)
def test_glued_homology_matches_unreduced_reference(cx):
    assert homology(cx) == homology_reference.homology(cx)
    assert_pairs_off_as_the_reference(cx)


def pairings(pair_off, cx):
    """Each degree's seed count and the alive flags it leaves below and
    above, pairing off degree by degree as ``_coreduce`` does."""
    alive = [bytearray(b"\x01") * len(cx.simplices(d)) for d in range(cx.dimension + 1)]
    found = []
    for d in range(1, cx.dimension + 1):
        rows, _ = simplicial._facets(cx, d)
        seeds = pair_off(rows, d + 1, alive[d - 1], alive[d], seed=d == 1)
        found.append((seeds, bytes(alive[d - 1]), bytes(alive[d])))
    return found


def assert_pairs_off_as_the_reference(cx):
    assert pairings(simplicial._pair_off, cx) == pairings(
        coreduction_reference.pair_off, cx
    )
    with mock.patch.object(simplicial, "_pair_off", coreduction_reference.pair_off):
        expected = simplicial._coreduce(cx)
    assert simplicial._coreduce(cx) == expected


@pytest.mark.parametrize(
    "cx",
    ladder_complexes()
    + [
        pytest.param(fixed_set_off_the_vertex_positions(), id="fixed-set-off-positions"),
        pytest.param(
            disjoint_union(simplex(0), hexagon(), projective_plane()),
            id="vertex-hexagon-projective-plane",
        ),
    ],
)
def test_pairing_matches_the_sorted_coface_reference(cx):
    # The reference finds cofaces by a sort and the last alive facet by a
    # running sum; both must pair off the same cells in the same order.
    assert_pairs_off_as_the_reference(cx)


@st.composite
def complexes_and_subsets(draw):
    """A random complex and an induced subcomplex on some of its vertices,
    whose vertex numbers are then not 0..n-1."""
    simplices = draw(
        st.lists(
            st.frozensets(st.integers(0, 14), min_size=1, max_size=3),
            unique=True,
            min_size=1,
            max_size=14,
        )
    )
    cx = build_complex([tuple(sorted(s)) for s in simplices])
    keep = draw(st.lists(st.sampled_from(cx.vertices), unique=True))
    return cx, cx.induced(keep)


@given(complexes_and_subsets())
@settings(max_examples=150, deadline=None)
def test_component_roots_match_the_dict_union_find(pair):
    for cx in pair:
        roots = coreduction_reference.component_roots(cx)
        assert simplicial._component_roots(cx) == roots
        groups = {}
        for v, root in zip(cx.vertices, roots):
            groups.setdefault(root, []).append(v)
        expected = [tuple(groups[root]) for root in sorted(groups)]
        assert [c.vertices for c in connected_components(cx)] == expected


def test_reduction_rejects_a_residual_that_is_not_a_complex():
    # No unit to pivot on, so the composite 2 * 3 stays in the residual.
    with pytest.raises(AssertionError, match="do not compose to zero"):
        reduce_chain_complex([1, 1, 1], iter([[(0, 0, 2)], [(0, 0, 3)]]))


@pytest.mark.parametrize(
    "data",
    [
        {"maximal_simplices": "abc"},
        {"maximal_simplices": {"a": [1]}},
        {"maximal_simplices": [[None, 2]]},
        {"maximal_simplices": [[1.0, 2]]},
        {"maximal_simplices": [[True, 2]]},
        {"maximal_simplices": [[]]},
        {"maximal_simplices": ["ab"]},
        {"maximal_simplices": [[[0], [1]]]},
        [[0, 1]],
    ],
)
def test_complex_from_json_rejects_malformed_simplices(data):
    with pytest.raises(ValueError):
        complex_from_json(data)


@pytest.mark.parametrize(
    "simplices, message",
    [
        (["ab"], "simplex 'ab' is not a non-empty list"),
        ([5], "simplex 5 is not a non-empty list"),
        ([[]], "simplex [] is not a non-empty list"),
        ([[0, 1], []], "simplex [] is not a non-empty list"),
        ([[True, 2]], "vertex True is neither an int nor a string"),
        ([[1.0, 2]], "vertex 1.0 is neither an int nor a string"),
        ([[None, 2]], "vertex None is neither an int nor a string"),
        ([[0, 1, 0]], "repeated vertex in simplex (0, 0, 1)"),
        ([["b", "a", "b"]], "repeated vertex in simplex ('a', 'b', 'b')"),
        ([[0, 1], [1, 0]], "duplicate maximal simplex (0, 1)"),
        ([[0, "a"], ["a", 0]], "duplicate maximal simplex (0, 'a')"),
        ([[0, 1], [0, 1, 2], [2, 1, 0]], "duplicate maximal simplex (0, 1, 2)"),
        # The first fault in the input is the one reported.
        ([[0, True], 5], "vertex True is neither an int nor a string"),
        ([[0, 1], [1, 1]], "repeated vertex in simplex (1, 1)"),
        ([[2, 2], [0, 1], [1, 0]], "repeated vertex in simplex (2, 2)"),
        ([[0, 1], [1, 0], [2, 2]], "duplicate maximal simplex (0, 1)"),
    ],
)
def test_complex_from_json_error_messages(simplices, message):
    with pytest.raises(ValueError) as raised:
        complex_from_json({"maximal_simplices": simplices})
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "maximal, message",
    [
        ([()], "empty simplex"),
        ([(0, 1), ()], "empty simplex"),
        ([(), (0, 0)], "empty simplex"),
        ([(0, 0, 1)], "repeated vertex in simplex (0, 0, 1)"),
        ([("a", "b", "a")], "repeated vertex in simplex ('a', 'a', 'b')"),
        ([(0, 1), (1, 0)], "duplicate maximal simplex (0, 1)"),
        ([(0, 1, 2), (2, 0, 1)], "duplicate maximal simplex (0, 1, 2)"),
        ([(1,), (0, 1), (1,)], "duplicate maximal simplex (1,)"),
        ([(2, 2), (0, 1), (1, 0)], "repeated vertex in simplex (2, 2)"),
        ([(0, 1), (1, 0), (2, 2)], "duplicate maximal simplex (0, 1)"),
    ],
)
def test_build_complex_error_messages(maximal, message):
    with pytest.raises(ValueError) as raised:
        build_complex(maximal)
    assert str(raised.value) == message


def test_complex_from_json_accepts_int_and_string_vertices():
    cx = complex_from_json({"maximal_simplices": [[0, "a"], ["a", "b"], [7]]})
    assert cx.counts() == {0: 4, 1: 2}
