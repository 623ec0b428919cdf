"""``subdivide_action`` against the validating constructor.

A subdivision's stabilizer table is read off its parent's: each chain's
mask is the AND of its members' masks, the bits are the parent's, and
the goodness certificate is empty.  Each must equal what the per-element
pass (``_element_pass``) finds on the action that the validating
constructor builds from the subdivision's vertex maps, on every corpus
action and every action that is not good until subdivided, at one to
three subdivisions; on a seeded family of commuting permutations of the
boundary of the n-simplex, n <= 5; on cyclic groups of order 3, 4 and 9,
whose powers go past the generator itself; and on the trivial group and
the empty complex.  The vertex maps themselves are checked against the
label-level reference, ``tests/action_reference.py``.  Neither the
constructor's checks nor the per-element pass runs on a subdivision
until its permutations are asked for; the constructor still refuses a
generator whose order does not divide its factor's.
"""

import itertools

import pytest

import action_reference
import aft.actions
from aft.actions import (
    SimplicialAction,
    _element_pass,
    chi_defect_divisibility,
    fixed_subcomplex,
    subdivide_action,
    validate_good,
)
from aft.corpus import boundary_simplex, corpus_actions, corpus_entry
from aft.groups import FiniteAbelianGroup, Subgroup, all_subgroups
from aft.simplicial import build_complex
from test_actions import NOT_GOOD
from test_root_route import FAMILY, commuting_permutations


def reference_vertex_images(parent):
    """Each generator's map of the subdivision's vertices, vertex k being
    simplex k of ``parent.space``, from the label-level reference."""
    space = parent.space
    degrees = range(space.dimension + 1)
    starts = itertools.accumulate(map(len, map(space.simplices, degrees)), initial=0)
    starts = list(zip(degrees, starts))
    return tuple(
        dict(enumerate(
            start + j
            for d, start in starts
            for j in action_reference.simplex_permutation(parent, g, d)
        ))
        for g in Subgroup.whole(parent.group).basis_elements()
    )


def assert_matches_the_constructor(action, parent):
    """``action``'s table equals the per-element pass on the constructor's
    action with its vertex maps, which the reference gives from
    ``parent``'s."""
    table = action._table
    assert action.vertex_images == reference_vertex_images(parent)
    generic = SimplicialAction(action.group, action.space, action.vertex_images)
    want = _element_pass(generic)
    assert table.masks == want.masks
    assert table.bits == want.bits
    assert table.goodness == want.goodness
    assert table.goodness.is_good and table.goodness.witnesses == ()
    assert validate_good(action) is table.goodness


def assert_subdivisions_match(action, subdivisions):
    for _ in range(subdivisions):
        parent, action = action, subdivide_action(action)
        assert_matches_the_constructor(action, parent)


def _cycle(n, step):
    """The turn of the n-gon (n >= 3) by ``step``, and the n-gon."""
    space = build_complex([(i, (i + 1) % n) for i in range(n)])
    return {i: (i + step) % n for i in range(n)}, space


@pytest.mark.parametrize("name", [e.name for e in corpus_actions()] + list(NOT_GOOD))
def test_corpus_and_non_good_subdivisions_match_the_constructor(name):
    action = NOT_GOOD[name]() if name in NOT_GOOD else corpus_entry(name).action
    assert_subdivisions_match(action, 3)


# Subdivisions per n: sd^2 of the boundary of the 4-simplex has 12,600
# simplices; sd^3 of it (301,680) and sd^2 of the 5-simplex's boundary
# (546,482) are left to the S^6 step of CI.
FAMILY_SUBDIVISIONS = {1: 3, 2: 3, 3: 3, 4: 2, 5: 1}


@pytest.mark.parametrize("n, seed", FAMILY)
def test_commuting_permutations_match_the_constructor(n, seed):
    action = commuting_permutations(n, seed)
    assert_subdivisions_match(action, FAMILY_SUBDIVISIONS[n])


@pytest.mark.parametrize(
    "p, e, step, subdivisions",
    [(3, 1, 1, 3), (3, 1, 2, 3), (2, 2, 1, 3), (2, 2, 3, 3), (3, 2, 2, 2), (3, 2, 3, 2)],
)
def test_cyclic_powers_match_the_constructor(p, e, step, subdivisions):
    # Z/p^e turning the p^e-gon: every power of the generator has its own
    # bit.  The step 3 of Z/9 has order 3, which divides 9.
    perm, space = _cycle(p**e, step)
    group = FiniteAbelianGroup([(p, [e])])
    assert_subdivisions_match(SimplicialAction(group, space, [perm]), subdivisions)


def test_z4_on_the_boundary_of_the_tetrahedron_matches_the_constructor():
    # A 4-cycle of the vertices of S^2, and a product with a swap.
    space = boundary_simplex(3)
    group = FiniteAbelianGroup([(2, [2, 1])])
    perms = [{0: 1, 1: 2, 2: 3, 3: 0}, {0: 2, 1: 3, 2: 0, 3: 1}]
    assert_subdivisions_match(SimplicialAction(group, space, perms), 3)


def test_trivial_group_matches_the_constructor():
    trivial = FiniteAbelianGroup([])
    assert_subdivisions_match(SimplicialAction(trivial, boundary_simplex(2), []), 3)


def test_empty_complex_matches_the_constructor():
    empty = build_complex([])
    z2 = FiniteAbelianGroup([(2, [1])])
    for group, perms in ((z2, [{}]), (FiniteAbelianGroup([]), [])):
        action = SimplicialAction(group, empty, perms)
        assert_subdivisions_match(action, 3)
        assert subdivide_action(action).space.num_simplices() == 0


def test_subdivisions_run_neither_the_constructor_nor_the_element_pass(monkeypatch):
    roots = [e.action for e in corpus_actions()]
    for root in roots:
        validate_good(root)  # the root's table, from its one element pass

    def refused(*args):
        raise AssertionError("ran")

    monkeypatch.setattr(SimplicialAction, "_check_wellformed", refused)
    monkeypatch.setattr(aft.actions, "_element_pass", refused)
    with pytest.raises(AssertionError, match="ran"):
        SimplicialAction(roots[0].group, roots[0].space, roots[0].vertex_images)
    for root in roots:
        action = root
        for _ in range(3):
            action = subdivide_action(action)
        assert validate_good(action).is_good
        group = action.group
        for sub in all_subgroups(group):
            fixed_subcomplex(action, sub)
            if group.is_p_group() and group.order > 1:
                chi_defect_divisibility(action, sub, 1)


@pytest.mark.parametrize(
    "p, e, n, step",
    [(3, 1, 4, 2), (2, 1, 4, 1), (2, 2, 3, 1), (2, 2, 8, 1), (2, 2, 8, 3)],
    ids=["z3-swap", "z2-quarter-turn", "z4-3-cycle", "z4-8-cycle", "z4-8-cycle-cubed"],
)
def test_a_generator_of_the_wrong_order_is_refused(p, e, n, step):
    # The turn of the n-gon by step has order n / gcd(n, step), which does
    # not divide p^e in any of these.
    perm, space = _cycle(n, step)
    with pytest.raises(ValueError, match=f"does not have order dividing {p**e}"):
        SimplicialAction(FiniteAbelianGroup([(p, [e])]), space, [perm])
