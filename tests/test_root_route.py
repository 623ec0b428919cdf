"""The root route of ``aft.actions`` against the fixed subcomplexes of
subdivisions.

``lefschetz_number``, ``fixed_set_chi``, ``generic_fixed_element`` and
``component_chis`` read the action that ``subdivide_action`` started
from, good or not.  Each is compared here with ``root_route_reference``,
which reads ``fixed_subcomplex`` on a good action: ``make_good`` of the
root (the root if it is good, else its subdivision; from
``subdivision_reference``), or its first or second subdivision.  So is
``fixed_subcomplex`` of the root itself, the complex K_H of orbit faces,
by its homology over Z, F_2 and F_3: that of the fixed subcomplex it
subdivides to.  The inputs are every corpus action, the actions in
``NOT_GOOD`` and a seeded family of abelian groups of commuting
permutations of the n + 1 vertices of the boundary of the n-simplex,
S^(n-1), for n <= 5.  The second subdivision of the boundary of the
5-simplex has 546,482 simplices, so that member stops at the first.
"""

import random

import pytest

import aft.actions
import aft.simplicial
import root_route_reference as reference
from aft.actions import (
    SimplicialAction,
    component_chis,
    fixed_set_chi,
    fixed_subcomplex,
    generic_fixed_element,
    lefschetz_number,
    subdivide_action,
    validate_good,
)
from aft.corpus import CorpusEntry, boundary_simplex, corpus_actions, corpus_entry
from aft.groups import FiniteAbelianGroup, all_subgroups
from aft.pipeline import pipeline
from aft.simplicial import homology
from subdivision_reference import make_good
from test_actions import NOT_GOOD


def commuting_permutations(n, seed):
    """A seeded abelian group of commuting permutations of the vertices of
    the boundary of the n-simplex.

    The vertices are cut into cycles of lengths 1 to 4.  Each generator
    has a prime p and turns some of the cycles whose length is a power of
    p, at least one if there is one, each by its own power.  Cycles are
    disjoint, so the generators commute, and a generator's order divides
    the longest cycle it turns.  The generators are sorted into the
    group's canonical order, p ascending and orders descending.
    """
    rng = random.Random(f"commuting-permutations:{n}:{seed}")
    vertices = list(range(n + 1))
    rng.shuffle(vertices)
    cycles = []
    while vertices:
        length = rng.choice((1, 2, 2, 3, 4))
        cycles.append(vertices[:length])
        vertices = vertices[length:]
    gens = []
    for _ in range(rng.randrange(1, 4)):
        p = rng.choice((2, 2, 3))
        turnable = [c for c in cycles if len(c) in (p, p * p)]
        turned = [c for c in turnable if rng.randrange(3)] or turnable[:1]
        perm = {v: v for v in range(n + 1)}
        for c in turned:
            power = rng.randrange(1, len(c))
            perm.update({v: c[(i + power) % len(c)] for i, v in enumerate(c)})
        # Cycles have at most 4 vertices: only a 4-cycle needs Z/4.
        gens.append((p, 2 if any(len(c) == 4 for c in turned) else 1, perm))
    gens.sort(key=lambda gen: (gen[0], -gen[1]))
    primary = {}
    for p, e, _ in gens:
        primary.setdefault(p, []).append(e)
    group = FiniteAbelianGroup(sorted(primary.items()))
    return SimplicialAction(group, boundary_simplex(n), [perm for _, _, perm in gens])


FAMILY = [(n, seed) for n in range(1, 6) for seed in range(6)]


def assert_matches_the_reference(action, good):
    """Every reading of ``action``'s root equals the reference on ``good``."""
    assert validate_good(good).is_good
    group = action.group
    for g in group.elements():
        assert lefschetz_number(action, g) == reference.trace(good, g), g
    for sub in all_subgroups(group):
        label = [list(r) for r in sub.basis_residues]
        assert fixed_set_chi(action, sub) == reference.fixed_chi(good, sub), label
        want = reference.generic_element(good, sub)
        assert generic_fixed_element(action, sub) == want, label
        assert component_chis(action, sub) == reference.component_chis(good, sub), label
        fixed = homology(fixed_subcomplex(action.root, sub), primes=(2, 3))
        assert fixed == homology(fixed_subcomplex(good, sub), primes=(2, 3)), label


def test_family_has_non_good_members_of_each_prime():
    # The family is not only good actions, and not only 2-groups.
    actions = [commuting_permutations(n, seed) for n, seed in FAMILY]
    assert sum(not validate_good(a).is_good for a in actions) >= len(actions) // 2
    assert {p for a in actions for p in a.group.primes()} == {2, 3}


@pytest.mark.parametrize("n, seed", FAMILY)
def test_root_route_matches_make_good(n, seed):
    action = commuting_permutations(n, seed)
    assert_matches_the_reference(action, make_good(action))


@pytest.mark.parametrize(
    "n, seed, subdivisions",
    [(n, seed, k) for n, seed in FAMILY for k in (1, 2) if n <= 4 or k == 1],
)
def test_root_route_matches_the_subdivisions(n, seed, subdivisions):
    action = commuting_permutations(n, seed)
    subdivided = action
    for _ in range(subdivisions):
        subdivided = subdivide_action(subdivided)
    assert subdivided.root is action
    assert_matches_the_reference(subdivided, subdivided)


@pytest.mark.parametrize(
    "name, subdivisions",
    [(e.name, k) for e in corpus_actions() for k in range(3)],
)
def test_root_route_matches_the_corpus_subdivisions(name, subdivisions):
    # The corpus actions are good; the root of z2-swap-subdivided-edge is
    # the swap of an edge, which is not.
    action = corpus_entry(name).action
    for _ in range(subdivisions):
        action = subdivide_action(action)
    assert validate_good(action.root).is_good == (name != "z2-swap-subdivided-edge")
    assert_matches_the_reference(action, action)


@pytest.mark.parametrize("name, subdivisions", [(name, k) for name in NOT_GOOD for k in (1, 2)])
def test_root_route_matches_the_not_good_subdivisions(name, subdivisions):
    action = subdivided = NOT_GOOD[name]()
    for _ in range(subdivisions):
        subdivided = subdivide_action(subdivided)
    assert not validate_good(action).is_good and subdivided.root is action
    assert_matches_the_reference(subdivided, subdivided)


@pytest.mark.parametrize("n", [3, 5])
def test_pipeline_certifies_a_non_good_root_without_subdividing(monkeypatch, n):
    # The even spheres S^2 and S^4, each with the first non-good member of
    # the family on it: the pipeline neither subdivides nor asks for
    # goodness, and reports what it reports on make_good of the action.
    action = next(
        a for a in (commuting_permutations(n, seed) for seed in range(20))
        if not validate_good(a).is_good
    )
    metadata = {"mu": n + 1}
    good = make_good(action)
    want = pipeline(CorpusEntry("sphere", "action", action=good, metadata=metadata))

    def refused(*args):
        raise AssertionError("subdivided")

    monkeypatch.setattr(aft.actions, "barycentric_subdivision", refused)
    monkeypatch.setattr(aft.simplicial, "barycentric_subdivision", refused)
    monkeypatch.setattr(aft.actions, "validate_good", refused)
    report = pipeline(CorpusEntry("sphere", "action", action=action, metadata=metadata))
    assert report == want and report["passed"]
