"""Character values as sums of ``Fraction``s, the reference for ``aft.groups``.

This is the evaluation ``Character`` used before its values became integer
residues mod the group exponent: one ``Fraction(a_i x_i, m_i)`` per factor,
reduced mod 1.  It shares no arithmetic with the library's weights, so
tests compare the two on random groups, characters and subgroups.
"""

import math
from fractions import Fraction


class FractionCharacter:
    """Character of a finite abelian group, evaluated with ``Fraction``s."""

    def __init__(self, parent, exponents):
        exponents = tuple(exponents)
        if len(exponents) != parent.rank:
            raise ValueError("exponent tuple has wrong length")
        self.parent = parent
        self.exponents = tuple(
            a % m for a, m in zip(exponents, parent.factor_orders)
        )

    def rotation(self, element):
        """Value as an exact rotation number in [0, 1)."""
        if element.group != self.parent:
            raise ValueError("element of a different group")
        total = Fraction(0)
        for a, x, m in zip(self.exponents, element.residues, self.parent.factor_orders):
            total += Fraction(a * x, m)
        return total % 1

    def is_one_at(self, element):
        return self.rotation(element) == 0

    def is_trivial_on(self, subgroup):
        return all(self.is_one_at(g) for g in subgroup.basis_elements())

    def restricted_order(self, subgroup):
        """Order of the restriction to ``subgroup`` = [H : Ker theta & H]."""
        if subgroup.order == 1:
            return 1
        return math.lcm(
            *(
                self.rotation(g).denominator
                for g in subgroup.basis_elements()
            )
        )

    def restriction_key(self, subgroup):
        """Hashable fingerprint of the restriction to ``subgroup``."""
        return tuple(self.rotation(g) for g in subgroup.basis_elements())
