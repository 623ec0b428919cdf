"""Fixed-point data read on a good subdivision, the reference for the root
route of ``aft.actions``.

Every function here takes a good action, such as the k-th subdivision of
an action, and reads the subcomplexes that ``fixed_subcomplex`` cuts out
of it: the Lefschetz number as the alternating count of the simplices g
fixes, chi(X^H) as the Euler characteristic of the fixed subcomplex, the
generic element by comparing fixed subcomplexes, and each component's
fixed set as the full subcomplex on its fixed vertices.  The library
reads the same data on the root action, which need not be good, by
Hopf's signed trace and by orbit counts in each invariant simplex.
"""

import operator

from aft.actions import fixed_subcomplex
from aft.groups import Subgroup
from aft.simplicial import connected_components


def trace(good, element):
    """Alternating count of the simplices ``element`` fixes: L(g) on a
    good action, where every fixed simplex is fixed pointwise."""
    total = 0
    for d in range(good.space.dimension + 1):
        perm = good.simplex_permutation(element, d)
        total += (-1) ** d * sum(map(operator.eq, perm, range(len(perm))))
    return total


def fixed_chi(good, subgroup):
    return fixed_subcomplex(good, subgroup).euler_characteristic()


def generic_element(good, subgroup):
    """First g of H with the fixed subcomplex of <g> equal to that of H."""
    fixed = fixed_subcomplex(good, subgroup)
    for g in subgroup.elements():
        if fixed_subcomplex(good, Subgroup.cyclic(g)) == fixed:
            return g
    return None


def component_chis(good, subgroup):
    """(chi(C), chi(C^H)) for each component C of the good action's space."""
    fixed = fixed_subcomplex(good, subgroup)
    return [
        (comp.euler_characteristic(), fixed.induced(comp.vertices).euler_characteristic())
        for comp in connected_components(good.space)
    ]
