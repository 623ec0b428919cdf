"""Finite abelian group actions on simplicial complexes.

An action stores one vertex permutation per canonical generator of the
group.  Goodness (setwise-stabilized simplices are pointwise fixed) is
validated by brute force over group elements, once per action: the
certificate is kept on the action.  Every reader of a fixed set (the
fixed-point, Lefschetz and divisibility computations) requires a good
action, so that fixed sets are subcomplexes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import chi_exponent
from .groups import FiniteAbelianGroup, Subgroup, subgroups_of
from .simplicial import (
    barycentric_subdivision,
    complex_from_json,
    homology,
    relabel_dense,
)

MAX_SUBDIVISIONS = 2  # make_good's limit


class NotGoodError(ValueError):
    """Operation requires a good action."""


class SimplicialAction:
    """Action of a finite abelian group on a simplicial complex."""

    def __init__(self, group, space, vertex_images):
        self.group = group
        self.space = space
        perms = []
        vset = set(space.vertices)
        for perm in vertex_images:
            perm = dict(perm)
            if set(perm) != vset or set(perm.values()) != vset:
                raise ValueError("generator image is not a vertex permutation")
            perms.append(perm)
        if len(perms) != group.rank:
            raise ValueError("need one permutation per canonical generator")
        self.vertex_images = tuple(perms)
        self._check_wellformed()
        self._goodness = None  # GoodnessCertificate, set by validate_good

    def _check_wellformed(self):
        simplex_set = set(self.space.simplices())
        for gi, perm in enumerate(self.vertex_images):
            for s in simplex_set:
                if self.image_simplex(perm, s) not in simplex_set:
                    raise ValueError(
                        f"generator {gi} does not map simplex {s} to a simplex"
                    )
            m = self.group.factor_orders[gi]
            if _perm_power(perm, m) != {v: v for v in self.space.vertices}:
                raise ValueError(f"generator {gi} does not have order dividing {m}")
        for i in range(len(self.vertex_images)):
            for j in range(i + 1, len(self.vertex_images)):
                a, b = self.vertex_images[i], self.vertex_images[j]
                if _perm_compose(a, b) != _perm_compose(b, a):
                    raise ValueError(f"generators {i} and {j} do not commute")

    def permutation(self, element):
        """Vertex permutation of an arbitrary group element."""
        if element.group != self.group:
            raise ValueError("element of a different group")
        perm = {v: v for v in self.space.vertices}
        for r, gen in zip(element.residues, self.vertex_images):
            perm = _perm_compose(_perm_power(gen, r), perm)
        return perm

    def image_simplex(self, perm, simplex):
        return self.space.ordered(perm[v] for v in simplex)

    def to_json(self):
        dense, mapping = relabel_dense(self.space)
        return {
            "group": self.group.to_json(),
            "complex": {
                "maximal_simplices": [
                    list(s) for s in dense.maximal_simplices()
                ]
            },
            "generator_images": [
                [mapping[perm[v]] for v in self.space.vertices]
                for perm in self.vertex_images
            ],
        }


def _perm_compose(outer, inner):
    return {v: outer[inner[v]] for v in inner}


def _perm_power(perm, n):
    result = {v: v for v in perm}
    base = perm
    while n:
        if n & 1:
            result = _perm_compose(base, result)
        base = _perm_compose(base, base)
        n >>= 1
    return result


def action_from_json(data):
    group = FiniteAbelianGroup.from_json(data["group"])
    space = complex_from_json(data["complex"])
    perms = [
        {v: perm[v] for v in range(len(perm))}
        for perm in data["generator_images"]
    ]
    return SimplicialAction(group, space, perms)


@dataclass(frozen=True)
class GoodnessCertificate:
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
    witnesses = []
    for g in action.group.elements():
        if g.is_identity():
            continue
        perm = action.permutation(g)
        for s in action.space.simplices():
            if action.image_simplex(perm, s) == s:
                for v in s:
                    if perm[v] != v:
                        witnesses.append((g, s, v))
                        break
    action._goodness = GoodnessCertificate(not witnesses, tuple(witnesses))
    return action._goodness


def subdivide_action(action):
    """Induced action on the barycentric subdivision."""
    sd = barycentric_subdivision(action.space)
    perms = []
    for perm in action.vertex_images:
        perms.append(
            {s: action.image_simplex(perm, s) for s in sd.vertices}
        )
    return SimplicialAction(action.group, sd, perms)


def make_good(action):
    """Subdivide until the action is good; good inputs pass through.

    One barycentric subdivision is classically enough (chains of faces
    have members of distinct dimensions, so a stabilized chain is fixed
    memberwise); the second attempt is a safety net.
    """
    current = action
    for _ in range(MAX_SUBDIVISIONS + 1):
        cert = validate_good(current)
        if cert.is_good:
            return current
        current = subdivide_action(current)
    raise NotGoodError(
        f"action not good after {MAX_SUBDIVISIONS} subdivisions; "
        f"first witness: {validate_good(current).witnesses[:1]}"
    )


def fixed_subcomplex(action, subgroup):
    """Subcomplex of simplices fixed pointwise by every generator of H.

    For a good action that is the full subcomplex on the fixed vertices.
    """
    if subgroup.parent != action.group:
        raise ValueError("subgroup of a different group")
    if not validate_good(action).is_good:
        raise NotGoodError("fixed sets of non-good actions need not be subcomplexes")
    perms = [action.permutation(g) for g in subgroup.basis_elements()]
    return action.space.induced(
        v for v in action.space.vertices if all(p[v] == v for p in perms)
    )


def lefschetz_number(action, element):
    """Chain-level trace: alternating count of simplices fixed by g.

    For good actions this equals the Euler characteristic of the fixed
    subcomplex of <g>.
    """
    if not validate_good(action).is_good:
        raise NotGoodError("chain trace equals chi of fixed set only for good actions")
    perm = action.permutation(element)
    total = 0
    for d in range(action.space.dimension + 1):
        for s in action.space.simplices(d):
            if action.image_simplex(perm, s) == s:
                total += (-1) ** d
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


def stabilizer(action, simplex):
    """Setwise stabilizer of a simplex, as a Subgroup."""
    members = []
    for g in action.group.elements():
        perm = action.permutation(g)
        if action.image_simplex(perm, simplex) == simplex:
            members.append(g)
    return Subgroup(action.group, members)


def chi_defect_divisibility(action, gamma0, n):
    """Check p^(n+1) | chi(X) - chi(X^Gamma0) by orbit bookkeeping.

    The hypothesis that every simplex outside the fixed set has stabilizer
    of index >= p^(n+1) is verified first; a violation is reported as its
    own verdict, not as failure.
    """
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
        for s in action.space.simplices(d):
            if s in fixed_set:
                continue
            defect += (-1) ** d
            stab = stabilizer(action, s)
            if stab.index < modulus:
                witnesses.append((s, stab.index))
    chi_defect = (
        action.space.euler_characteristic() - fixed.euler_characteristic()
    )
    if chi_defect != defect:
        raise AssertionError("orbit bookkeeping disagrees with Euler counts")
    if witnesses:
        return DivisibilityVerdict(
            "hypothesis_violated", defect, modulus, tuple(witnesses[:5])
        )
    status = "divisible" if defect % modulus == 0 else "not_divisible"
    return DivisibilityVerdict(status, defect, modulus)


def action_kernel(action):
    """Subgroup of elements acting as the identity permutation."""
    identity = {v: v for v in action.space.vertices}
    members = [
        g for g in action.group.elements() if action.permutation(g) == identity
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


def gamma_chi_subgroup(action, mu, verify=True, profile=None):
    """Subgroup whose subgroups all preserve chi, with its index bound.

    For a p-group action: n is the smallest integer with
    p^(n+1) > 2 * sum_j b_j(X; F_p); the subgroup is the group of
    p^n-th powers modulo the action kernel, of index at most p^(n*mu).
    When ``verify`` is set and the space has no odd cohomology, the
    chi-preservation is checked on every subgroup, each one enumerated.
    A caller that already holds the homology of the space, computed with
    p among its primes, passes it as ``profile``; otherwise it is computed
    over F_p.
    """
    group = action.group
    if not group.is_p_group():
        raise ValueError("gamma_chi_subgroup needs a p-group action")
    if mu is None:
        raise ValueError("the Mann-Su constant mu must be supplied")
    if group.order == 1:
        return Subgroup.whole(group), 1
    p = group.primary_decomposition[0][0]
    if profile is None:
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
