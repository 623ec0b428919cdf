"""Finite abelian group actions on simplicial complexes.

Each canonical generator's vertex permutation is turned once into the
permutations of simplex indices (i in degree d is ``space.simplices(d)[i]``)
of its powers, which every reader below composes.  Goodness
(setwise-stabilized simplices are pointwise fixed) is validated by brute
force over group elements, once per action, and kept on the action.
Every reader of a fixed set requires a good action, so that fixed sets
are subcomplexes.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .bounds import _check_counts, chi_exponent
from .groups import FiniteAbelianGroup, Subgroup, _json_int, subgroups_of
from .simplicial import (
    barycentric_subdivision,
    complex_from_json,
    complex_to_json,
    homology,
)

class NotGoodError(ValueError):
    """Operation requires a good action."""


class SimplicialAction:
    """Action of a finite abelian group on a simplicial complex, given by
    one dict per canonical generator from ``space.vertices`` to itself."""

    def __init__(self, group, space, vertex_images):
        self.group = group
        self.space = space
        self.vertex_images = tuple(map(dict, vertex_images))
        vset = set(space.vertices)
        for perm in self.vertex_images:
            if set(perm) != vset or set(perm.values()) != vset:
                raise ValueError("generator image is not a vertex permutation")
        if len(self.vertex_images) != group.rank:
            raise ValueError("need one permutation per canonical generator")
        self._check_wellformed()
        self._goodness = None  # GoodnessCertificate, set by validate_good

    def _check_wellformed(self):
        """Keep each generator's powers as simplex index permutations."""
        space = self.space
        degrees = range(max(space.dimension, 0) + 1)  # degree 0 even if empty
        index = [{s: i for i, s in enumerate(space.simplices(d))} for d in degrees]
        self._identity = [tuple(range(len(ix))) for ix in index]
        self._powers = []  # [generator][power][degree] -> index permutation
        for gi, perm in enumerate(self.vertex_images):
            # Per degree, one C-level chain: each simplex's vertex images,
            # sorted, looked up as a simplex index.
            images = itertools.repeat(perm.__getitem__)
            try:
                gen = [
                    tuple(
                        map(ix.__getitem__, map(tuple, map(sorted, map(map, images, ix))))
                    )
                    for ix in index
                ]
            except KeyError as missing:
                raise ValueError(
                    f"generator {gi} maps a simplex onto "
                    f"{space.labelled(missing.args[0])}, which is not a simplex"
                ) from None
            m = self.group.factor_orders[gi]
            powers = [self._identity]  # gen^0 .. gen^m, then gen^m is dropped
            while len(powers) <= m:
                powers.append(_compose(gen, powers[-1]))
            if powers.pop()[0] != self._identity[0]:
                raise ValueError(f"generator {gi} does not have order dividing {m}")
            self._powers.append(powers)
        vertex_level = [powers[1][:1] for powers in self._powers]
        for (i, a), (j, b) in itertools.combinations(enumerate(vertex_level), 2):
            if _compose(a, b) != _compose(b, a):
                raise ValueError(f"generators {i} and {j} do not commute")

    def simplex_permutation(self, element, d):
        """Permutation of the indices of ``space.simplices(d)`` by ``element``."""
        if element.group != self.group:
            raise ValueError("element of a different group")
        perm = None
        for r, powers in zip(element.residues, self._powers):
            if r:
                image = powers[r][d]
                perm = image if perm is None else tuple(image[i] for i in perm)
        return self._identity[d] if perm is None else perm

    def to_json(self):
        """Generator images by vertex position, the numbers ``complex_to_json`` writes."""
        return {
            "group": self.group.to_json(),
            "complex": complex_to_json(self.space),
            "generator_images": [list(powers[1][0]) for powers in self._powers],
        }


def _compose(outer, inner):
    """Per degree, the index permutation ``outer`` after ``inner``."""
    return [tuple(o[i] for i in n) for o, n in zip(outer, inner)]


def action_from_json(data):
    """Action whose ``generator_images[k][v]`` is generator k's image of
    the vertex labelled v, as a label: a JSON integer, not a boolean."""
    group = FiniteAbelianGroup.from_json(data["group"])
    space = complex_from_json(data["complex"])
    number = {label: v for v, label in enumerate(space.labels)}.get
    perms = [
        {
            number(v): number(_json_int(perm[v], "generator image"))
            for v in range(len(perm))
        }
        for perm in data["generator_images"]
    ]
    return SimplicialAction(group, space, perms)


@dataclass(frozen=True)
class GoodnessCertificate:
    """Witnesses are (element, simplex, moved vertex), the last two in labels."""

    is_good: bool
    witnesses: tuple

    def to_json(self):
        return {
            "is_good": self.is_good,
            "witnesses": [
                {
                    "element": list(g.residues),
                    "simplex": [str(v) for v in s],
                    "moved_vertex": str(v),
                }
                for g, s, v in self.witnesses
            ],
        }


def validate_good(action):
    """Check that setwise-stabilized simplices are pointwise fixed.

    The check is computed on the first call and kept on the action;
    later calls return the same certificate.
    """
    if action._goodness is not None:
        return action._goodness
    space = action.space
    witnesses = []
    for g in action.group.elements():
        images = action.simplex_permutation(g, 0)  # by position, not vertex number
        moved = {space.vertices[i] for i, j in enumerate(images) if i != j}
        for d in range(1, space.dimension + 1) if moved else ():
            perm = action.simplex_permutation(g, d)
            for i, s in enumerate(space.simplices(d)):
                if perm[i] == i and not moved.isdisjoint(s):
                    v = next(v for v in s if v in moved)
                    witnesses.append((g, space.labelled(s), space.labels[v]))
    action._goodness = GoodnessCertificate(not witnesses, tuple(witnesses))
    return action._goodness


def subdivide_action(action):
    """Induced action on the barycentric subdivision, whose vertex k is the
    k-th simplex: each generator moves it by its simplex permutations."""
    offsets = [0, *itertools.accumulate(map(len, action._identity))]
    perms = [
        dict(enumerate(o + j for o, images in zip(offsets, powers[1]) for j in images))
        for powers in action._powers
    ]
    return SimplicialAction(action.group, barycentric_subdivision(action.space), perms)


def make_good(action):
    """The action if it is good, else its action on the barycentric
    subdivision, which is good: a chain of faces has members of distinct
    dimensions, so an element that fixes a chain fixes each member.
    AssertionError unless ``validate_good`` certifies that.
    """
    if validate_good(action).is_good:
        return action
    subdivided = subdivide_action(action)
    cert = validate_good(subdivided)
    if not cert.is_good:
        raise AssertionError(
            f"subdivided action is not good; first witness: {cert.witnesses[:1]}"
        )
    return subdivided


def fixed_subcomplex(action, subgroup):
    """Subcomplex of simplices fixed pointwise by every generator of H.

    For a good action that is the full subcomplex on the fixed vertices.
    When H fixes every vertex (the identity, the trivial subgroup, or any
    subgroup of the action kernel) it is the space itself, returned
    uncopied (``SimplicialComplex.induced``).
    """
    if subgroup.parent != action.group:
        raise ValueError("subgroup of a different group")
    if not validate_good(action).is_good:
        raise NotGoodError("fixed sets of non-good actions need not be subcomplexes")
    vertices = action.space.vertices
    positions = range(len(vertices))
    kept = set(vertices)
    for g in subgroup.basis_elements():
        images = action.simplex_permutation(g, 0)
        kept.intersection_update(
            itertools.compress(vertices, map(operator.eq, images, positions))
        )
    return action.space.induced(kept)


def lefschetz_number(action, element):
    """Chain-level trace: alternating count of simplices fixed by g.

    For good actions this equals the Euler characteristic of the fixed
    subcomplex of <g>.
    """
    if not validate_good(action).is_good:
        raise NotGoodError("chain trace equals chi of fixed set only for good actions")
    total = 0
    for d in range(action.space.dimension + 1):
        perm = action.simplex_permutation(element, d)
        total += (-1) ** d * sum(map(operator.eq, perm, range(len(perm))))
    return total


@dataclass(frozen=True)
class DivisibilityVerdict:
    status: str  # "divisible" | "not_divisible" | "hypothesis_violated"
    defect: int
    modulus: int
    witnesses: tuple = ()

    @property
    def ok(self):
        return self.status == "divisible"

    def to_json(self):
        return {
            "status": self.status,
            "defect": self.defect,
            "modulus": self.modulus,
            "witnesses": [str(w) for w in self.witnesses],
        }


def chi_defect_divisibility(action, gamma0, n):
    """Check p^(n+1) | chi(X) - chi(X^Gamma0) by orbit bookkeeping.

    The hypothesis that every simplex outside the fixed set has stabilizer
    of index >= p^(n+1) is verified first; a violation is reported as its
    own verdict, not as failure.  Raises ValueError unless n is a
    nonnegative int.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError(f"n = {n!r} is not a nonnegative integer")
    group = action.group
    if not group.is_p_group() or group.order == 1:
        raise ValueError("divisibility argument needs a nontrivial p-group")
    p = group.primary_decomposition[0][0]
    modulus = p ** (n + 1)
    fixed = fixed_subcomplex(action, gamma0)
    fixed_set = set(fixed.simplices())
    witnesses = []
    defect = 0
    for d in range(action.space.dimension + 1):
        perms = [action.simplex_permutation(g, d) for g in group.elements()]
        for i, s in enumerate(action.space.simplices(d)):
            if s in fixed_set:
                continue
            defect += (-1) ** d
            # The stabilizer's index: the orbit size of the simplex.
            index = group.order // sum(perm[i] == i for perm in perms)
            if index < modulus:
                witnesses.append((action.space.labelled(s), index))
    if witnesses:
        return DivisibilityVerdict(
            "hypothesis_violated", defect, modulus, tuple(witnesses[:5])
        )
    status = "divisible" if defect % modulus == 0 else "not_divisible"
    return DivisibilityVerdict(status, defect, modulus)


def action_kernel(action):
    """Subgroup of elements acting as the identity permutation."""
    members = [
        g
        for g in action.group.elements()
        if action.simplex_permutation(g, 0) == action._identity[0]
    ]
    return Subgroup(action.group, members)


def assert_chi_preserved(action, subgroup):
    """Check chi(X^S) = chi(X) for every subgroup S of ``subgroup``.

    The subgroups are enumerated by (order, basis); the AssertionError
    names the first one that changes chi.
    """
    chi = action.space.euler_characteristic()
    for sub in subgroups_of(subgroup):
        fixed_chi = fixed_subcomplex(action, sub).euler_characteristic()
        if fixed_chi != chi:
            raise AssertionError(
                f"chi not preserved by the subgroup generated by "
                f"{[list(r) for r in sub.basis_residues]}: {fixed_chi} != {chi}"
            )


def gamma_chi_subgroup(action, mu, verify=True):
    """Subgroup whose subgroups all preserve chi, with its index bound.

    For a p-group action: n is the smallest integer with
    p^(n+1) > 2 * sum_j b_j(X; F_p); the subgroup is the group of
    p^n-th powers modulo the action kernel, of index at most p^(n*mu).
    When ``verify`` is set and the space has no odd cohomology, the
    chi-preservation is checked on every subgroup, each one enumerated.
    The homology of the space is computed over F_p.
    """
    group = action.group
    if not group.is_p_group():
        raise ValueError("gamma_chi_subgroup needs a p-group action")
    _check_counts("mu", [mu])
    if group.order == 1:
        return Subgroup.whole(group), 1
    p = group.primary_decomposition[0][0]
    profile = homology(action.space, primes=(p,))
    n = chi_exponent(p, profile.total_betti_mod(p))
    kernel_sub = action_kernel(action)
    gamma_chi = Subgroup.whole(group).powers(p ** n).join(kernel_sub)
    # Index bound via the rank of the effective quotient.
    r = len(kernel_sub.quotient_invariant_factors())
    bound = p ** (n * mu)
    if gamma_chi.index > p ** (n * r):
        raise AssertionError("index exceeds p^(n r); power subgroup broken")
    if r > mu:
        raise ValueError(
            f"effective rank {r} exceeds the supplied Mann-Su constant {mu}"
        )
    if verify and profile.has_no_odd_cohomology():
        assert_chi_preserved(action, gamma_chi)
    return gamma_chi, bound
