"""Good actions, fixed subcomplexes, and the Lefschetz dictionary.

An action is good when every setwise-stabilized simplex is pointwise
fixed; then fixed sets are subcomplexes and the chain-level trace of an
element equals the Euler characteristic of its fixed set.  Actions that
are not good become good after one barycentric subdivision.
"""

from aft.actions import (
    SimplicialAction,
    fixed_subcomplex,
    lefschetz_number,
    subdivide_action,
    validate_good,
)
from aft.corpus import corpus_entry, simplex
from aft.groups import FiniteAbelianGroup, Subgroup

z2 = FiniteAbelianGroup([(2, [1])])
swap = SimplicialAction(z2, simplex(1), [{0: 1, 1: 0}])
cert = validate_good(swap)
print(f"Edge swap good? {cert.is_good}")
print(f"  witness: {cert.to_json()['witnesses'][0]}")

good = subdivide_action(swap)
print(f"After one subdivision: good? {validate_good(good).is_good}")
print(f"  the midpoint survives: {good.space.counts()}")

print("\nLefschetz numbers on the octahedron with Z/2 x Z/2:")
entry = corpus_entry("z2xz2-octahedron")
action = entry.action
for g in action.group.elements():
    fx = fixed_subcomplex(action, Subgroup.cyclic(g))
    trace = lefschetz_number(action, g)
    print(
        f"  g={list(g.residues)}: trace {trace:+d} == "
        f"chi(fixed) {fx.euler_characteristic():+d}, "
        f"fixed simplices {fx.num_simplices()}"
    )
