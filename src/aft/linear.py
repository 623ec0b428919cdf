"""Exact representation-theoretic disk and sphere models.

A real representation of a finite abelian group splits into trivial
summands, sign summands (character of order 2, dimension 1) and rotation
summands (character of order >= 3, dimension 2).  On the unit disk or
sphere of such a representation every fixed-point set is again a disk or
sphere, so stability, descent and the theorems' per-prime averaging
search can be run with exact integer arithmetic only.  Everything a
subgroup H contributes is read off one evaluation of each summand's
character on H's Hermite rows (``_restrict``): dim V^H and the normal
characters of H.  Each theorem call evaluates each subgroup it meets once
and hands the result on, and reads the model's dimension once.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

from .bounds import f as f_bound
from .groups import (
    Character,
    FiniteAbelianGroup,
    GroupElement,
    Subgroup,
    _json_field,
    _json_int,
    crt_power_extract,
    kernel,
    p_part,
    subgroups_of,
)
from .integermat import factorize

TRIVIAL = "trivial"
SIGN = "sign"
ROTATION = "rotation"


class Summand(namedtuple("Summand", "kind character")):
    __slots__ = ()

    def __new__(cls, kind, character=None):
        if kind == TRIVIAL:
            if character is not None and not character.is_trivial():
                raise ValueError("trivial summand with nontrivial character")
        elif kind == SIGN:
            if character is None or character.order() != 2:
                raise ValueError("sign summand needs a character of order 2")
        elif kind == ROTATION:
            if character is None or character.order() < 3:
                raise ValueError("rotation summand needs a character of order >= 3")
        else:
            raise ValueError(f"unknown summand kind {kind!r}")
        return tuple.__new__(cls, (kind, character))

    @property
    def dim(self):
        return 2 if self.kind == ROTATION else 1


def _fixed_among(summands, rows, big):
    """The summands of ``summands`` fixed by the subgroup that residue
    tuples ``rows`` generate, E = ``big`` being the group exponent: those
    whose character, sum_i w_i x_i mod E for its ``weights`` w, is 0 at
    every row x.  Trivial summands are always fixed."""
    fixed = []
    for s in summands:
        if s.kind == TRIVIAL:
            fixed.append(s)
            continue
        weights = s.character.weights
        for r in rows:
            if sum(map(operator.mul, weights, r)) % big:
                break
        else:
            fixed.append(s)
    return fixed


class RealRepresentation(namedtuple("RealRepresentation", "group summands")):
    __slots__ = ()

    def __new__(cls, group, summands):
        for _, char in summands:
            if char is not None:
                parent = char.parent
                if parent is not group and parent != group:
                    raise ValueError("summand character of a different group")
        return tuple.__new__(cls, (group, summands))

    @property
    def dim(self):
        return sum(s.dim for s in self.summands)

    def fixed_dim(self, rows):
        """dim V^H for the subgroup H that residue tuples ``rows`` generate:
        the total dimension of the summands that ``_fixed_among`` keeps."""
        fixed = _fixed_among(self.summands, rows, self.group.exponent)
        return sum(s.dim for s in fixed)


DISK = "disk"
SPHERE = "sphere"


class LinearActionModel(namedtuple("LinearActionModel", "rep shape")):
    __slots__ = ()

    def __new__(cls, rep, shape):
        if shape == SPHERE:
            if rep.dim < 1:
                raise ValueError("sphere model needs a representation of dim >= 1")
        elif shape != DISK:
            raise ValueError(f"unknown shape {shape!r}")
        return tuple.__new__(cls, (rep, shape))

    @property
    def group(self):
        return self.rep.group

    @property
    def dim_space(self):
        """Dimension of the model manifold."""
        return self.rep.dim if self.shape == DISK else self.rep.dim - 1

    def betti(self):
        """(b_0, ..., b_dim) over Z and any field: a point's for a disk, 1 in
        degrees 0 and dim for a sphere (so b_0 = 2 for the 0-sphere)."""
        betti = [1] + [0] * self.dim_space
        if self.shape == SPHERE:
            betti[-1] += 1
        return tuple(betti)

    def total_betti(self):
        return sum(self.betti())

    def euler_characteristic(self):
        return sum((-1) ** j * b for j, b in enumerate(self.betti()))


def model_from_json(data):
    """Model from its group, shape and summands; character exponents are
    JSON integers (not booleans), or ValueError, as for a missing field."""
    group = FiniteAbelianGroup.from_json(_json_field(data, "group", "model"))
    summands = []
    for s in _json_field(data, "summands", "model"):
        kind = _json_field(s, "kind", "summand")
        char = (
            Character(
                group, [_json_int(a, "character exponent") for a in s["character"]]
            )
            if "character" in s
            else None
        )
        summands.append(Summand(kind, char))
    return LinearActionModel(
        RealRepresentation(group, tuple(summands)), _json_field(data, "shape", "model")
    )


def model_to_json(model):
    out = {"group": model.group.to_json(), "shape": model.shape, "summands": []}
    for s in model.rep.summands:
        entry = {"kind": s.kind}
        if s.kind != TRIVIAL:
            entry["character"] = list(s.character.exponents)
        out["summands"].append(entry)
    return out


def _restrict(model, subgroup):
    """(dim V^H, normal characters of H), from one evaluation of each
    summand's character on the Hermite rows of H = ``subgroup``.

    A summand is fixed when its character is 0 on every row; the others
    give the normal characters.  Conjugate rotation characters give
    isomorphic real summands and are identified: the conjugate takes the
    values -v mod E, and the pair is keyed by the smaller of the two value
    tuples.  Each pair is represented by its character with the least
    exponents, and [H : Ker] is the order of its values mod E.  The normal
    characters come as [(parent character, [H : Ker])] sorted by (kernel
    index, exponents).
    """
    if subgroup.parent != model.group:
        raise ValueError("subgroup of a different group")
    big = model.group.exponent
    rows = subgroup.basis_residues
    fixed = 0
    found = {}
    for s in model.rep.summands:
        if s.kind == TRIVIAL:
            fixed += 1
            continue
        char = s.character
        weights = char.weights
        values = tuple([sum(map(operator.mul, weights, r)) % big for r in rows])
        if not any(values):
            fixed += s.dim
            continue
        conjugate = tuple([-v % big for v in values])
        key = min(values, conjugate)
        seen = found.get(key)
        if seen is None:
            found[key] = (char, big // math.gcd(big, *values))
        elif char.exponents < seen[0].exponents:
            found[key] = (char, seen[1])
    return fixed, sorted(found.values(), key=lambda t: (t[1], t[0].exponents))


def fixed_subspace_dim(model, subgroup):
    """dim V^H: trivial summands, plus summands whose character kills H.
    The count ``_restrict`` makes, without its normal characters."""
    if subgroup.parent != model.group:
        raise ValueError("subgroup of a different group")
    return model.rep.fixed_dim(subgroup.basis_residues)


def _sphere_chi(fixed_dim):
    """Euler characteristic of the unit sphere of a fixed subspace of this
    dimension: empty for 0, else S^(d-1)."""
    if fixed_dim == 0:
        return 0
    return 1 + (-1) ** (fixed_dim - 1)


def chi_fixed(model, subgroup):
    """Euler characteristic of the fixed set, from the shape formulas.  A
    fixed disk always holds the centre, so on a disk it is 1 and no
    dimension is computed."""
    if model.shape == DISK:
        if subgroup.parent != model.group:
            raise ValueError("subgroup of a different group")
        return 1
    return _sphere_chi(fixed_subspace_dim(model, subgroup))


def fixed_point_count(model, subgroup):
    """Number of fixed points, or None when the fixed set is positive-dim.

    None stands for infinitely many: a fixed disk or sphere of positive
    dimension.
    """
    d = fixed_subspace_dim(model, subgroup)
    if model.shape == DISK:
        return 1 if d == 0 else None
    if d == 0:
        return 0
    return 2 if d == 1 else None


def normal_characters(model, subgroup):
    """Distinct nontrivial characters of H on the non-fixed summands.

    Conjugate rotation characters give isomorphic real summands and are
    identified.  Returns [(representative parent character, [H : Ker])]
    sorted by (kernel index, exponents).
    """
    return _restrict(model, subgroup)[1]


def _sign_character(group, summands):
    """Product of the characters of the sign summands among ``summands``."""
    exps = [0] * group.rank
    for s in summands:
        if s.kind == SIGN:
            exps = [a + b for a, b in zip(exps, s.character.exponents)]
    return Character(group, exps)


def orientation_character(model):
    """Determinant character: product of the sign-summand characters."""
    return _sign_character(model.group, model.rep.summands)


def _chi_breaker(model, subgroup, chi):
    """First subgroup S of ``subgroup`` with chi(X^S) != chi = chi(X), or None."""
    for sub in subgroups_of(subgroup):
        if _sphere_chi(model.rep.fixed_dim(sub.basis_residues)) != chi:
            return sub
    return None


def is_lambda_stable(model, lam):
    """Exact lambda-stability check of the model's group, per p-part.

    Each p-part is that of a prime dividing the group's order, so it is
    nontrivial.
    """
    chi = model.euler_characteristic() if model.shape == SPHERE else None
    for p in model.group.primes():
        part = p_part(model.group, p)
        if any(index <= lam for _, index in normal_characters(model, part)):
            return False
        if chi is not None and _chi_breaker(model, part, chi) is not None:
            return False
    return True


class DescentStep(namedtuple("DescentStep", "character kernel_index fixed_dim")):
    __slots__ = ()


def descent_to_stable(model, lam, start):
    """Kernel-intersection descent to a lambda-stable subgroup.

    Starts from ``start``, which must be a p-group of the model's group.
    Each step passes to the kernel of a violating character within the
    current subgroup, strictly growing the fixed subspace (checked), so it
    stops after at most dim V < C(m+k+1, m+1) steps with a subgroup of
    index <= lam^steps in ``start``.  On a sphere, every subgroup of
    ``start`` must preserve chi (checked).
    """
    if start.parent != model.group:
        raise ValueError("start subgroup of a different group")
    if len(factorize(start.order)) > 1:
        raise ValueError("descent requires a p-group (restrict to a p-part)")
    if model.shape == SPHERE:
        bad = _chi_breaker(model, start, model.euler_characteristic())
        if bad is not None:
            raise ValueError(
                "descent precondition violated: some subgroup does not "
                f"preserve chi, e.g. {bad}"
            )
    steps = []
    current = start
    # One evaluation per subgroup: a step's fixed dimension is the next
    # step's "before", and its normal characters the next violating ones.
    # They are sorted by (kernel index, exponents), so the first violates
    # lambda-stability if any does, and is the least that does.
    before, chars = _restrict(model, current)
    while chars and chars[0][1] <= lam:
        char, index = chars[0]
        current = kernel(char, current)
        after, chars = _restrict(model, current)
        if after <= before:
            raise AssertionError(
                "fixed subspace did not grow strictly during descent"
            )
        steps.append(DescentStep(char, index, after))
        before = after
    return current, steps


def generic_element(model, lam, subgroup=None):
    """Least element whose fixed set matches the whole group's fixed set.

    Requires a lambda-stable (sub)group with
    lam >= dim X * (sum of Betti numbers); the element is the
    lexicographically least one outside every normal-character kernel.
    """
    if subgroup is None:
        subgroup = Subgroup.whole(model.group)
    betti = model.betti()  # (b_0, ..., b_dim)
    if lam < (len(betti) - 1) * sum(betti):
        raise ValueError(
            "generic_element needs lam >= dim X * total Betti number"
        )
    target, normal = _restrict(model, subgroup)
    chars = [char for char, _ in normal]
    for residues in subgroup.iter_element_residues():
        if all(char.value(residues) for char in chars):
            g = GroupElement(model.group, residues)
            if model.rep.fixed_dim((residues,)) != target:
                raise AssertionError(
                    "generic element does not reproduce the fixed subspace"
                )
            return g
    raise AssertionError(
        "no generic element exists; the kernel-union counting bound failed"
    )


def _averaging_search(model, acting, p, chars):
    """The per-prime averaging argument of the disk and sphere theorems.

    ``chars`` are the r normal characters of the nontrivial p-group
    ``acting``.  Finds the lex-least gamma minimizing I(gamma) = sum of e_j
    over the character kernels containing gamma (certified <= [r/p]), then
    takes A' as the meet of those kernels with ``acting``, each kernel
    taken within the last result (certified X^gamma = X^A').  Returns
    (gamma, A').
    """
    r = len(chars)
    weighted = [(char, factorize(index)[0][1]) for char, index in chars]
    best = None
    for residues in acting.iter_element_residues():
        i_val = 0
        for char, e_j in weighted:
            if char.value(residues) == 0:
                i_val += e_j
        if best is None or i_val < best[0]:
            best = (i_val, residues)
        if i_val == 0:
            break
    i_min, gamma = best[0], GroupElement(model.group, best[1])
    if i_min > r // p:
        raise AssertionError(
            f"averaging bound violated: min I = {i_min} > [r/p] = {r // p}"
        )
    a_prime = acting
    for char, _ in chars:
        if char.is_one_at(gamma):
            a_prime = kernel(char, a_prime)
    rep = model.rep
    if rep.fixed_dim((gamma.residues,)) != rep.fixed_dim(a_prime.basis_residues):
        raise AssertionError("X^gamma != X^A' on the linear model")
    return gamma, a_prime


def sphere_two_group_reduce(model, acting):
    """Orientation/central-involution reduction for 2-groups on even spheres.

    Returns A0, a subgroup of ``acting`` with an odd-dimensional fixed
    subspace (even-dimensional fixed sphere); [A2 : A0] dividing 2^(m+1)
    is certified here.

    W = V^c, for c the central involutions found so far, is carried as the
    summands c fixes; c is never built.  Each round cuts b to ker(sign of
    W) & b, which holds c since c fixes W.  If b then fixes W, A0 = b
    (= <b, c>); else an element t of b of order 2 on W joins c, and
    V^<c,t> = W & V^t, the summands of W that t fixes.
    """
    dim = model.dim_space
    if model.shape != SPHERE or dim % 2 != 0:
        raise ValueError("needs an even-dimensional sphere model")
    group = model.group
    m = dim // 2
    bound = 2 ** (m + 1)
    big = group.exponent
    b = acting
    w_summands = model.rep.summands
    while True:
        if sum(s.dim for s in w_summands) % 2 == 0:
            raise AssertionError("current fixed sphere has odd dimension")
        b = kernel(_sign_character(group, w_summands), b)
        # b acts trivially on W exactly when it fixes every summand of W.
        if len(_fixed_among(w_summands, b.basis_residues, big)) == len(w_summands):
            break
        # Central element acting with order exactly 2 on W.
        w_chars = [s.character for s in w_summands if s.kind != TRIVIAL]
        for residues in b.iter_element_residues():
            if not any(residues):
                continue
            action_order = math.lcm(
                *(big // math.gcd(char.value(residues), big) for char in w_chars)
            )
            if action_order == 2:
                w_summands = _fixed_among(w_summands, (residues,), big)
                break
        else:
            raise AssertionError(
                "no involution-like element found in a nontrivially acting "
                "2-group; reduction argument broken"
            )
    index = acting.order // b.order
    if bound % index != 0:
        raise AssertionError(
            f"[A2:A0] = {index} does not divide 2^(m+1) = {bound}"
        )
    fd = model.rep.fixed_dim(b.basis_residues)
    if fd % 2 == 0 or fd < 1:
        raise AssertionError("reduced subgroup has no even-sphere fixed set")
    return b


def assemble_cross_prime(model, parts):
    """Combine per-prime (gamma_p, A'_p) into (gamma, A') with certification.

    ``parts`` maps primes to (gamma_p, A'_p); the per-prime fixed-set
    equalities must already hold.  Certifies that CRT power extraction
    recovers each gamma_p from gamma, and that X^gamma = X^A'.
    """
    group = model.group
    gamma = group.identity()
    a_prime = Subgroup.trivial_subgroup(group)
    for p in sorted(parts):
        gamma_p, sub_p = parts[p]
        gamma = gamma * gamma_p
        a_prime = a_prime.join(sub_p)
    for p in sorted(parts):
        gamma_p, sub_p = parts[p]
        _, component = crt_power_extract(gamma, p)
        if component != gamma_p:
            raise AssertionError("CRT component does not recover gamma_p")
    rep = model.rep
    if rep.fixed_dim((gamma.residues,)) != rep.fixed_dim(a_prime.basis_residues):
        raise AssertionError("X^gamma != X^A' after assembly")
    return gamma, a_prime


class TheoremResult(
    namedtuple("TheoremResult", "subgroup gamma divisor_bound branch chi")
):
    __slots__ = ()

    @property
    def index(self):
        """[A : subgroup], in place of ``tuple.index``."""
        return self.subgroup.index

    def to_json(self):
        return {
            "index": self.index,
            "divisor_bound": self.divisor_bound,
            "branch": self.branch,
            "chi_of_fixed_set": self.chi,
            "gamma": None if self.gamma is None else list(self.gamma.residues),
            "subgroup_generators": [
                list(r) for r in self.subgroup.basis_residues
            ],
        }


def _result(a_prime, gamma, bound, branch, chi):
    """The theorem's answer A', certified by [A:A'] dividing ``bound``;
    ``chi`` is chi(X^A')."""
    if bound % a_prime.index != 0:
        raise AssertionError(
            f"{branch}: [A:A'] = {a_prime.index} does not divide {bound}"
        )
    return TheoremResult(a_prime, gamma, bound, branch, chi)


def disk_theorem(model):
    """Full disk pipeline: A' <= A with [A:A'] | f([(n-3)/2]), chi(X^A') = 1.

    Every fixed set of a disk is a disk, so chi(X^A') = 1 on each branch.
    """
    if model.shape != DISK:
        raise ValueError("disk model required")
    group = model.group
    n = model.rep.dim
    k = (n - 3) // 2  # floor, negative for n <= 2
    bound = f_bound(k)
    parts = {}
    for p in group.primes():
        part = p_part(group, p)
        fixed, chars = _restrict(model, part)
        if fixed <= 2:
            # Low-dimensional fixed disk: chi(X^A) = 1 already.
            return _result(Subgroup.whole(group), None, bound, "low-dim-fixed-set", 1)
        parts[p] = (part, chars)
    if not parts:
        return _result(Subgroup.whole(group), None, bound, "trivial-group", 1)
    found = {
        p: _averaging_search(model, part, p, chars)
        for p, (part, chars) in parts.items()
    }
    gamma, a_prime = assemble_cross_prime(model, found)
    return _result(a_prime, gamma, bound, "gamma-search", 1)


def sphere_theorem(model):
    """Full even-sphere pipeline: [A:A'] | 2^(m+1) f(m-1), |X^A'| >= 2."""
    dim = model.dim_space
    if model.shape != SPHERE or dim % 2 != 0:
        raise ValueError("even-dimensional sphere model required")
    group = model.group
    m = dim // 2
    bound = 2 ** (m + 1) * f_bound(m - 1)
    two_part = p_part(group, 2)
    if two_part.order > 1:
        a20 = sphere_two_group_reduce(model, two_part)
    else:
        a20 = two_part
    parts = {2: a20}
    for p in group.primes():
        if p != 2:
            parts[p] = p_part(group, p)
    searched = {}
    for p, part in sorted(parts.items()):
        if part.order == 1:
            continue
        fixed, chars = _restrict(model, part)
        if fixed == 1:
            # Two-point branch: this per-prime fixed sphere is 0-dimensional,
            # so the part fixes one summand, of dimension 1.  A' is the
            # whole group if that summand is trivial, else its sign's kernel.
            (s,) = _fixed_among(model.rep.summands, part.basis_residues, group.exponent)
            a_prime = Subgroup.whole(group) if s.kind == TRIVIAL else kernel(s.character)
            fixed = model.rep.fixed_dim(a_prime.basis_residues)
            if fixed < 1:
                raise AssertionError("two-point branch lost the fixed line")
            return _result(a_prime, None, bound, "two-point", _sphere_chi(fixed))
        searched[p] = (part, chars)
    if not searched:
        # Every per-prime part is trivial (possibly after the 2-group
        # reduction), so A' is the trivial subgroup, fixing all of V, and
        # gamma = 1.
        return _result(
            Subgroup.trivial_subgroup(group), group.identity(), bound,
            "trivial-fixing-subgroup", _sphere_chi(dim + 1),
        )
    # Every searched part fixes an odd dimension >= 3: A0 by its
    # certificate, an odd p-part because only its rotation summands
    # (dimension 2) can move and dim V is odd; dimension 1 took the
    # two-point branch.
    found = {
        p: _averaging_search(model, part, p, chars)
        for p, (part, chars) in searched.items()
    }
    gamma, a_prime = assemble_cross_prime(model, found)
    fixed = model.rep.fixed_dim(a_prime.basis_residues)
    if fixed < 1:
        raise AssertionError("assembled subgroup has empty fixed sphere")
    return _result(a_prime, gamma, bound, "gamma-search", _sphere_chi(fixed))
