"""Fixed subcomplexes rebuilt from scratch, the reference for
``aft.actions.fixed_subcomplex``.

Both functions here compose each basis element's vertex map from the
generators' vertex dicts, one generator step at a time, and build a new
``SimplicialComplex`` from labels, which numbers the vertices again and
checks face closure again.  ``fixed_subcomplex`` keeps every simplex of
the space whose vertices those maps fix: the fixed set of a good action.
``orbit_complex`` is K_H, the fixed set of any action: for each simplex
that every map keeps as a set, its face on the least vertex of each
orbit.  On a good action the library reads the maps off its simplex
index permutations and cuts the simplices out of the space with
``SimplicialComplex.induced``, keeping the space's vertex numbers; on
another it walks the orbits of the moved vertices of invariant simplices
and keeps those numbers too (``SimplicialComplex.subcomplex``).
"""

from aft.simplicial import SimplicialComplex


def vertex_map(action, element):
    """Vertex -> vertex map of ``element``."""
    image = {v: v for v in action.space.vertices}
    for r, gen in zip(element.residues, action.vertex_images):
        for _ in range(r):
            image = {v: gen[w] for v, w in image.items()}
    return image


def fixed_subcomplex(action, subgroup):
    """Subcomplex of simplices fixed pointwise by every generator of H."""
    maps = [vertex_map(action, g) for g in subgroup.basis_elements()]
    fixed_vertices = {
        v for v in action.space.vertices if all(m[v] == v for m in maps)
    }
    return SimplicialComplex(
        action.space.labelled(s)
        for s in action.space.simplices()
        if fixed_vertices.issuperset(s)
    )


def orbit_complex(action, subgroup):
    """K_H: the face of each H-invariant simplex on the least vertex of
    each H-orbit on it."""
    maps = [vertex_map(action, g) for g in subgroup.basis_elements()]

    def orbit(v):
        found = {v}
        while True:
            more = {m[w] for m in maps for w in found} - found
            if not more:
                return found
            found |= more

    space = action.space
    return SimplicialComplex(
        space.labelled([v for v in s if v == min(orbit(v))])
        for s in space.simplices()
        if all({m[v] for v in s} == set(s) for m in maps)
    )
