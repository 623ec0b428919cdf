"""Fixed subcomplexes rebuilt from scratch, the reference for
``aft.actions.fixed_subcomplex``.

``fixed_subcomplex`` here keeps every simplex of the space whose vertices
the subgroup's basis fixes and builds a new ``SimplicialComplex`` from
their labels, which numbers the vertices again and checks face closure
again; the library cuts the same simplices out of the space with
``SimplicialComplex.induced``, keeping the space's vertex numbers.
"""

from aft.simplicial import SimplicialComplex


def fixed_subcomplex(action, subgroup):
    """Subcomplex of simplices fixed pointwise by every generator of H."""
    perms = [action.permutation(g) for g in subgroup.basis_elements()]
    fixed_vertices = {
        v for v in action.space.vertices if all(p[v] == v for p in perms)
    }
    return SimplicialComplex(
        action.space.labelled(s)
        for s in action.space.simplices()
        if fixed_vertices.issuperset(s)
    )
