"""Join-closure references for ``aft.groups``.

``closure_elements`` lists a subgroup's elements by closing the identity
under multiplication by the basis generators; the library reads them off
the Hermite basis instead.

``join_closure`` enumerates subgroups.  Every subgroup is generated by
cyclic subgroups, so closing the trivial subgroup under joins with every
cyclic subgroup reaches all of them.  Each join costs one Hermite normal
form, which makes this slow (over a second on (Z/2)^5, 12-20 s on
(Z/2)^6), but it shares no search logic with the library's direct
Hermite-form enumeration.
"""

from aft.groups import Subgroup


def closure_elements(subgroup):
    """All elements, by closure over the basis generators."""
    gens = subgroup.basis_elements()
    seen = {subgroup.parent.identity()}
    frontier = [subgroup.parent.identity()]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)


def join_closure(group, within=None):
    """The set of all subgroups of ``within`` (default: the whole group)."""
    members = group.elements() if within is None else closure_elements(within)
    cyclic = {Subgroup.cyclic(g) for g in members}
    trivial = Subgroup.trivial_subgroup(group)
    found = {trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for h in frontier:
            for c in cyclic:
                j = h.join(c)
                if j not in found:
                    found.add(j)
                    nxt.append(j)
        frontier = nxt
    return found
