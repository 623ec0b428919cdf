"""Fixed subcomplexes rebuilt from scratch, the reference for
``aft.actions.fixed_subcomplex``.

``fixed_subcomplex`` here composes each basis element's vertex map from
the generators' vertex dicts, one generator step at a time, keeps every
simplex of the space whose vertices those maps fix, and builds a new
``SimplicialComplex`` from their labels, which numbers the vertices
again and checks face closure again.  The library reads the same maps
off its simplex index permutations and cuts the simplices out of the
space with ``SimplicialComplex.induced``, keeping the space's vertex
numbers.
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
