"""Good actions, fixed subcomplexes, Lefschetz numbers, divisibility."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import action_reference
import aft.actions
import fixed_set_reference
from aft.actions import (
    SimplicialAction,
    action_from_json,
    action_kernel,
    assert_chi_preserved,
    chi_defect_divisibility,
    fixed_set_chi,
    fixed_subcomplex,
    gamma_chi_subgroup,
    generic_fixed_element,
    lefschetz_number,
    subdivide_action,
    validate_good,
)
from aft.corpus import (
    boundary_simplex,
    corpus_actions,
    corpus_entry,
    hexagon,
    octahedron,
    simplex,
)
from aft.groups import FiniteAbelianGroup, Subgroup, all_subgroups
from aft.integermat import factorize
from aft.simplicial import SimplicialComplex, complex_from_json
from subdivision_reference import make_good


def z2():
    return FiniteAbelianGroup([(2, [1])])


def edge_swap():
    return SimplicialAction(z2(), simplex(1), [{0: 1, 1: 0}])


def test_wellformedness_rejected():
    g = z2()
    with pytest.raises(ValueError):
        SimplicialAction(g, simplex(1), [{0: 0, 1: 0}])  # not a permutation
    with pytest.raises(ValueError):
        SimplicialAction(g, simplex(2), [])  # wrong generator count
    z3 = FiniteAbelianGroup([(3, [1])])
    with pytest.raises(ValueError):
        # Transposition has order 2, not dividing... it does divide nothing:
        # perm^3 != id.
        SimplicialAction(z3, simplex(1), [{0: 1, 1: 0}])


def test_non_simplicial_image_rejected():
    g = z2()
    cx = SimplicialAction  # noqa: F841 (clarity only)
    space = simplex(2)
    # A permutation of the vertex set is always simplicial on a full
    # simplex, so use a path: 0-1, 1-2 without 0-2.
    path = {"maximal_simplices": [[0, 1], [1, 2]]}
    with pytest.raises(ValueError):
        SimplicialAction(g, complex_from_json(path), [{0: 0, 1: 2, 2: 1}])


def test_goodness_witness_for_edge_swap():
    cert = validate_good(edge_swap())
    assert not cert.is_good
    g, s, v = cert.witnesses[0]
    assert s == (0, 1) and v in (0, 1)


def test_make_good_subdivides_once():
    swap = edge_swap()
    good = subdivide_action(swap)
    assert validate_good(good).is_good and good.root is swap
    assert good.space.counts() == {0: 3, 1: 2}
    # The tests' make_good passes a good action through untouched.
    assert make_good(swap).space == good.space and make_good(good) is good


def _cycle_lengths(perm):
    seen, lengths = set(), []
    for start in range(len(perm)):
        length, v = 0, start
        while v not in seen:
            seen.add(v)
            v, length = perm[v], length + 1
        if length:
            lengths.append(length)
    return lengths


@st.composite
def prime_power_actions(draw):
    """A permutation of prime-power order > 1 on the n + 1 vertices of the
    n-simplex or of its boundary, n <= 4, as an action of its cyclic group."""
    n = draw(st.integers(1, 4))
    space = draw(st.sampled_from([simplex(n), boundary_simplex(n)]))
    perm = draw(st.permutations(range(n + 1)))
    factors = factorize(math.lcm(*_cycle_lengths(perm)))
    assume(len(factors) == 1)
    group = FiniteAbelianGroup([(factors[0][0], [factors[0][1]])])
    return SimplicialAction(group, space, [dict(enumerate(perm))])


@settings(max_examples=60, deadline=None)
@given(prime_power_actions())
def test_one_subdivision_makes_an_action_good(action):
    g = subdivide_action(action)
    # The same subdivision through the validating constructor: its
    # certificate comes from the pass over the elements, not from the
    # parent's table.
    certificate = validate_good(SimplicialAction(g.group, g.space, g.vertex_images))
    assert certificate.is_good and certificate == validate_good(g)


def test_action_on_an_induced_subcomplex():
    # Without vertex 0 the octahedron keeps the vertex numbers 1..5, which
    # sit at positions 0..4 of its vertex list.  Swapping 2 and 3 moves no
    # simplex onto itself, since 2 and 3 are antipodal.
    space = octahedron().induced([1, 2, 3, 4, 5])
    action = SimplicialAction(z2(), space, [{1: 1, 2: 3, 3: 2, 4: 4, 5: 5}])
    cert = validate_good(action)
    assert cert.is_good
    assert cert.witnesses == tuple(action_reference.goodness_witnesses(action))
    whole = Subgroup.whole(action.group)
    fixed = fixed_subcomplex(action, whole)
    assert fixed.vertices == (1, 4, 5)
    assert fixed == fixed_set_reference.fixed_subcomplex(action, whole)
    assert action_kernel(action) == action_reference.action_kernel(action)
    for g in action.group.elements():
        assert lefschetz_number(action, g) == (
            action_reference.lefschetz_number(action, g)
        )


def test_subdivision_induces_action():
    action = subdivide_action(edge_swap())
    assert validate_good(action).is_good
    perm = action.simplex_permutation(action.group.element((1,)), 0)
    midpoint = action.space.labels.index((0, 1))
    assert perm[midpoint] == midpoint
    # Vertex k of the subdivision is the edge's k-th simplex.
    assert action.space.labels == ((0,), (1,), (0, 1))
    assert action.vertex_images == ({0: 1, 1: 0, 2: 2},)


def test_fixed_subcomplex_of_a_non_good_action():
    # The swap fixes the midpoint of the edge, the rotation the centre of
    # the triangle: each K_H is the least vertex of the one orbit that
    # spans the one invariant simplex.
    for action in (edge_swap(), NOT_GOOD["z3-rotation-triangle"]()):
        whole = Subgroup.whole(action.group)
        fixed = fixed_subcomplex(action, whole)
        assert fixed.labels is action.space.labels and fixed.simplices() == ((0,),)
        assert fixed_set_chi(action, whole) == 1


def test_chi_defect_divisibility_requires_goodness():
    # The swap leaves its edge invariant but fixes only the midpoint, so
    # the edge is neither in the fixed set nor moved as a whole.
    action = edge_swap()
    with pytest.raises(ValueError, match="the orbit count needs a good action"):
        chi_defect_divisibility(action, Subgroup.whole(action.group), 0)


def test_lefschetz_number_of_a_non_good_action():
    # Hopf's trace needs no goodness: the swap keeps only the edge, whose
    # orientation it reverses, so L = (-1)^1 * (-1) = 1, chi of the
    # midpoint.  The unsigned count of invariant simplices would read -1.
    action = edge_swap()
    assert lefschetz_number(action, action.group.element((1,))) == 1
    assert lefschetz_number(action, action.group.identity()) == 1


def test_goodness_is_computed_once_per_action(monkeypatch):
    import aft.actions

    # A fresh copy: loading the corpus already validated the original.
    corpus = corpus_entry("z2xz2-octahedron").action
    action = SimplicialAction(corpus.group, corpus.space, corpus.vertex_images)
    made = []
    certificate = aft.actions.GoodnessCertificate
    tables = []
    table = aft.actions._StabilizerTable
    permutations = []
    permutation = SimplicialAction.simplex_permutation

    def counting_certificate(*args):
        made.append(args)
        return certificate(*args)

    def counting_table(*args):
        tables.append(args)
        return table(*args)

    def counting_permutation(*args):
        permutations.append(args)
        return permutation(*args)

    monkeypatch.setattr(aft.actions, "GoodnessCertificate", counting_certificate)
    monkeypatch.setattr(aft.actions, "_StabilizerTable", counting_table)
    monkeypatch.setattr(SimplicialAction, "simplex_permutation", counting_permutation)
    assert validate_good(action).is_good
    # One pass over the elements: every reader below reads its table.
    permutations.clear()
    for sub in all_subgroups(action.group):
        fixed_subcomplex(action, sub)
        generic_fixed_element(action, sub)
        chi_defect_divisibility(action, sub, 1)
    for g in action.group.elements():
        fixed_subcomplex(action, Subgroup.cyclic(g))
    action_kernel(action)
    assert permutations == []
    # Orbits and orientations need vertex maps: degree 0 only.
    for sub in all_subgroups(action.group):
        fixed_set_chi(action, sub)
    for g in action.group.elements():
        lefschetz_number(action, g)
    assert permutations and {args[-1] for args in permutations} == {0}
    assert len(made) == 1 and len(tables) == 1
    assert validate_good(action).is_good


# Actions that are not good until subdivided: the edge swap, the rotation
# of a triangle, the Z/2 x Z/2 of a square's reflections through the
# midpoints of opposite edges, and the swap of vertices 1 and 3 of the
# boundary of the 4-simplex without vertex 0, a 3-simplex whose vertex
# numbers 1..4 sit at positions 0..3: read by number, the masks of 1
# and 3 would be those of the fixed vertices 2 and 4.
NOT_GOOD = {
    "edge-swap": edge_swap,
    "z3-rotation-triangle": lambda: SimplicialAction(
        FiniteAbelianGroup([(3, [1])]), simplex(2), [{0: 1, 1: 2, 2: 0}]
    ),
    "z2xz2-square-reflections": lambda: SimplicialAction(
        FiniteAbelianGroup([(2, [1, 1])]),
        corpus_entry("z4-rotation-square").action.space,
        [{0: 1, 1: 0, 2: 3, 3: 2}, {0: 3, 1: 2, 2: 1, 3: 0}],
    ),
    "z2-swap-induced-tetrahedron": lambda: SimplicialAction(
        z2(), boundary_simplex(4).induced([1, 2, 3, 4]), [{1: 3, 2: 2, 3: 1, 4: 4}]
    ),
}


def _subdivided(name, subdivisions):
    action = NOT_GOOD[name]() if name in NOT_GOOD else corpus_entry(name).action
    for _ in range(subdivisions):
        action = subdivide_action(action)
    return action


@pytest.mark.parametrize(
    "name, subdivisions",
    [(e.name, 0) for e in corpus_actions()]
    + [("z2-antipodal-octahedron", 2), ("z2xz2-octahedron", 2)]
    + [("z2-swap-induced-tetrahedron", 0)],
)
def test_fixed_subcomplex_matches_rebuilt_reference(name, subdivisions):
    # K_H equals its rebuilt reference on every action; on a good one the
    # full subcomplex that fixed_subcomplex cuts out equals the complex of
    # the orbit faces, and the reference's pointwise-fixed simplices.
    action = _subdivided(name, subdivisions)
    space = action.space
    good = validate_good(action).is_good
    assert good == (name not in NOT_GOOD)
    for sub in all_subgroups(action.group):
        got = fixed_subcomplex(action, sub)
        want = fixed_set_reference.orbit_complex(action, sub)
        assert got == want and hash(got) == hash(want)
        # The fixed set keeps the space's numbers, labels and order.
        assert got.labels is space.labels
        kept = {frozenset(want.labelled(s)) for s in want.simplices()}
        assert got.simplices() == tuple(
            s for s in space.simplices() if frozenset(space.labelled(s)) in kept
        )
        if good:
            faces = aft.actions._fixed_cells(action, sub).values()
            assert got == SimplicialComplex(map(space.labelled, faces))
            assert got == fixed_set_reference.fixed_subcomplex(action, sub)


@pytest.mark.parametrize(
    "name, subdivisions",
    [(name, k) for name in [e.name for e in corpus_actions()] + list(NOT_GOOD)
     for k in range(3)],
)
def test_actions_match_label_reference(name, subdivisions):
    # The reference's unsigned count of fixed simplices is the Lefschetz
    # number only on a good action; the simplex permutations, witnesses
    # and kernel are compared on every action.
    action = _subdivided(name, subdivisions)
    for g in action.group.elements():
        for d in range(action.space.dimension + 1):
            assert action.simplex_permutation(g, d) == (
                action_reference.simplex_permutation(action, g, d)
            ), (g, d)
    cert = validate_good(action)
    want = action_reference.goodness_witnesses(action)
    assert cert.witnesses == tuple(want) and cert.is_good == (not want)
    assert action_kernel(action) == action_reference.action_kernel(action)
    for g in action.group.elements() if cert.is_good else ():
        assert lefschetz_number(action, g) == (
            action_reference.lefschetz_number(action, g)
        )


@pytest.mark.parametrize(
    "name, subdivisions",
    [(e.name, k) for e in corpus_actions() if e.action.group.is_p_group()
     for k in range(3)]
    + [(name, k) for name in NOT_GOOD for k in (1, 2)],
)
def test_chi_defect_divisibility_matches_label_reference(name, subdivisions):
    action = _subdivided(name, subdivisions)
    for gamma0 in all_subgroups(action.group):
        for n in range(4):
            assert chi_defect_divisibility(action, gamma0, n) == (
                action_reference.chi_defect_divisibility(action, gamma0, n)
            ), (gamma0.basis_residues, n)


def test_witnesses_name_labels():
    # An edge swap on vertices labelled 5 and 7: the witness is in labels.
    space = complex_from_json({"maximal_simplices": [[5, 7]]})
    action = SimplicialAction(z2(), space, [{0: 1, 1: 0}])
    g, s, v = validate_good(action).witnesses[0]
    assert (s, v) == ((5, 7), 5)


def test_fixed_subcomplex_of_antipodal_is_empty():
    entry = corpus_entry("z2-antipodal-octahedron")
    fx = fixed_subcomplex(entry.action, Subgroup.whole(entry.action.group))
    assert fx.num_simplices() == 0


def test_fixed_subcomplex_of_half_turn():
    entry = corpus_entry("z2xz2-octahedron")
    g = entry.action.group
    # The half-turn generator fixes the two poles 4 and 5.
    fx = fixed_subcomplex(entry.action, Subgroup.cyclic(g.element((0, 1))))
    assert fx.counts() == {0: 2}
    assert fx.euler_characteristic() == 2


def test_lefschetz_matches_fixed_chi_everywhere():
    for entry in corpus_actions():
        for g in entry.action.group.elements():
            fx = fixed_subcomplex(entry.action, Subgroup.cyclic(g))
            assert lefschetz_number(entry.action, g) == (
                fx.euler_characteristic()
            )


def test_action_kernel():
    trivial = corpus_entry("trivial-z2-on-triangle")
    assert action_kernel(trivial.action).order == 2
    rotation = corpus_entry("z4-rotation-square")
    assert action_kernel(rotation.action).order == 1


def test_chi_defect_divisibility_antipodal():
    entry = corpus_entry("z2-antipodal-octahedron")
    # n = 2 is the smallest with 2^(n+1) > 2 * sum b(F_2) = 4.
    gamma_chi, bound = gamma_chi_subgroup(entry.action, entry.metadata["mu"])
    assert gamma_chi.order == 1
    verdict = chi_defect_divisibility(entry.action, gamma_chi, 2)
    assert verdict.ok
    assert verdict.defect % 8 == 0


def test_chi_defect_hypothesis_violation_reported():
    entry = corpus_entry("z2-antipodal-octahedron")
    whole = Subgroup.whole(entry.action.group)
    # With gamma0 = whole group and an absurdly large n, free orbits of
    # size 2 violate the stabilizer-index hypothesis.
    verdict = chi_defect_divisibility(entry.action, whole, 5)
    assert verdict.status == "hypothesis_violated"
    assert verdict.witnesses


@pytest.mark.parametrize("n", [-2, -1, True, 1.0, "2", None])
def test_chi_defect_rejects_n_that_is_not_a_nonnegative_int(n):
    # A negative n would make the modulus p^(n+1) a fraction.
    action = corpus_entry("z2-antipodal-octahedron").action
    with pytest.raises(ValueError, match="nonnegative integer"):
        chi_defect_divisibility(action, Subgroup.trivial_subgroup(action.group), n)


def test_gamma_chi_preserves_chi_for_all_subgroups():
    for entry in corpus_actions():
        group = entry.action.group
        if not group.is_p_group() or group.order == 1:
            continue
        gamma_chi, bound = gamma_chi_subgroup(
            entry.action, entry.metadata["mu"]
        )
        assert gamma_chi.index <= bound
        chi = entry.action.space.euler_characteristic()
        from aft.groups import subgroups_of

        for sub in subgroups_of(gamma_chi):
            fx = fixed_subcomplex(entry.action, sub)
            assert fx.euler_characteristic() == chi


def test_chi_preservation_check_names_the_first_failing_subgroup():
    action = corpus_entry("z2xz2-octahedron").action
    # chi(X) = 2; the rotation (0, 1) fixes two poles and the antipode
    # (1, 0) fixes nothing.  By (order, basis), <(1, 0)> comes first.
    assert_chi_preserved(action, Subgroup.cyclic(action.group.element((0, 1))))
    with pytest.raises(AssertionError, match=r"generated by \[\[1, 0\]\]: 0 != 2"):
        assert_chi_preserved(action, Subgroup.whole(action.group))


def test_gamma_chi_trivial_action_is_whole_group():
    entry = corpus_entry("trivial-z2-on-triangle")
    gamma_chi, _ = gamma_chi_subgroup(entry.action, entry.metadata["mu"])
    assert gamma_chi == Subgroup.whole(entry.action.group)


def test_mu_too_small_rejected():
    entry = corpus_entry("z4-rotation-square")
    with pytest.raises(ValueError):
        gamma_chi_subgroup(entry.action, 0)


@pytest.mark.parametrize("mu", [1.5, 2.0, True, None])
def test_mu_must_be_a_nonnegative_int(mu):
    # A float mu made the bound p^(n mu) a float (8.0 for 2.0), and True
    # acted as 1.
    entry = corpus_entry("z2-antipodal-octahedron")
    with pytest.raises(ValueError, match="mu"):
        gamma_chi_subgroup(entry.action, mu)


def test_action_json_round_trip():
    entry = corpus_entry("z2-antipodal-hexagon")
    data = entry.action.to_json()
    rebuilt = action_from_json(data)
    assert rebuilt.group == entry.action.group
    assert rebuilt.space.counts() == entry.action.space.counts()
    for g in rebuilt.group.elements():
        assert lefschetz_number(rebuilt, g) == (
            lefschetz_number(entry.action, g)
        )


def test_smith_inequality_on_corpus():
    from aft.simplicial import homology

    for entry in corpus_actions():
        group = entry.action.group
        if not group.is_p_group() or group.order == 1:
            continue
        p = group.primary_decomposition[0][0]
        total = homology(entry.action.space, primes=(p,)).total_betti_mod(p)
        for sub in all_subgroups(group):
            fx = fixed_subcomplex(entry.action, sub)
            assert homology(fx, primes=(p,)).total_betti_mod(p) <= total
