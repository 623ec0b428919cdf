"""The sphere 2-group reduction as it was when it kept c as a subgroup.

``sphere_two_group_reduce`` here builds c, the subgroup of central
involutions found so far, with a Hermite form each round, reads W = V^c
off a scan of every summand, and returns A0 = A'.join(c) when the
orientation-preserving subgroup A' fixes W.  The library now carries W as
its summands and never builds c; the tests require both to give the same
A0.  The body is the old one word for word; the method it called,
``RealRepresentation.fixed_summands``, is gone, so ``fixed_summands``
below stands in for it, as it was.
"""

import math

from aft.groups import GroupElement, Subgroup, kernel
from aft.linear import SPHERE, TRIVIAL, _fixed_among, _sign_character


class _Representation:
    """A real representation with the old ``fixed_summands`` method."""

    def __init__(self, rep):
        self.rep = rep

    def fixed_summands(self, rows):
        """The summands fixed by the subgroup that residue tuples ``rows`` generate."""
        return _fixed_among(self.rep.summands, rows, self.rep.group.exponent)

    def fixed_dim(self, rows):
        return self.rep.fixed_dim(rows)


def sphere_two_group_reduce(model, acting):
    """Orientation/central-involution reduction for 2-groups on even spheres.

    Returns A0, a subgroup of ``acting`` with an odd-dimensional fixed
    subspace (even-dimensional fixed sphere); [A2 : A0] dividing 2^(m+1)
    is certified here.
    """
    dim = model.dim_space
    if model.shape != SPHERE or dim % 2 != 0:
        raise ValueError("needs an even-dimensional sphere model")
    group, rep = model.group, _Representation(model.rep)
    m = dim // 2
    bound = 2 ** (m + 1)
    big = group.exponent
    b = acting
    c = Subgroup.trivial_subgroup(group)
    while True:
        c_rows = c.basis_residues
        w_summands = rep.fixed_summands(c_rows)
        w_dim = sum(s.dim for s in w_summands)
        if w_dim % 2 == 0:
            raise AssertionError("current fixed sphere has odd dimension")
        # A subgroup acts trivially on W = V^c exactly when it fixes every
        # summand of W; the summands outside W are not fixed by c.
        if len(_fixed_among(w_summands, b.basis_residues, big)) == len(w_summands):
            a0 = b
            break
        # Orientation-preserving subgroup of b on W.
        a_prime = kernel(_sign_character(group, w_summands), b)
        if len(_fixed_among(w_summands, a_prime.basis_residues, big)) == len(w_summands):
            a0 = a_prime.join(c)
            b = a_prime
            break
        # Central element acting with order exactly 2 on W.
        w_chars = [s.character for s in w_summands if s.kind != TRIVIAL]
        t = None
        for residues in a_prime.iter_element_residues():
            if not any(residues):
                continue
            action_order = math.lcm(
                *(big // math.gcd(c.value(residues), big) for c in w_chars)
            )
            if action_order == 2:
                t = GroupElement(group, residues)
                break
        if t is None:
            raise AssertionError(
                "no involution-like element found in a nontrivially acting "
                "2-group; reduction argument broken"
            )
        c = Subgroup.from_rows(group, c_rows + (t.residues,))
        b = a_prime
    index = acting.order // a0.order
    if bound % index != 0:
        raise AssertionError(
            f"[A2:A0] = {index} does not divide 2^(m+1) = {bound}"
        )
    fd = rep.fixed_dim(a0.basis_residues)
    if fd % 2 == 0 or fd < 1:
        raise AssertionError("reduced subgroup has no even-sphere fixed set")
    return a0
