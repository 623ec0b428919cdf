"""All-pairs barycentric subdivision and vertex ordering, the references
for ``aft.simplicial``, and ``make_good``, the good action that tests of
``aft.actions`` compare the root with: the root if it is good, else its
one subdivision.

``subdivision`` extends each chain of faces by testing every simplex of
higher dimension for proper containment, so it is quadratic in the number
of simplices, and builds the result from the faces' labels, so it is
numbered afresh; the library extends chains through a coface index and
numbers the subdivision's vertices by the input's simplex order.
``vertex_key_order`` sorts labels by ``_vertex_key`` directly, vertex by
vertex, where the library numbers the vertices once per complex.
"""

from aft.actions import subdivide_action, validate_good
from aft.simplicial import SimplicialComplex, _vertex_key


def make_good(action):
    """The action if it is good, else its subdivision, which is."""
    return action if validate_good(action).is_good else subdivide_action(action)


def subdivision(complex_):
    """Barycentric subdivision: simplices are chains of proper faces."""
    chains = []
    by_dim = {
        d: [complex_.labelled(s) for s in complex_.simplices(d)]
        for d in range(complex_.dimension + 1)
    }

    def extend(chain):
        chains.append(tuple(chain))
        top_s = chain[-1]
        for d in range(len(top_s), complex_.dimension + 1):
            for s in by_dim.get(d, ()):
                if set(top_s) < set(s):
                    chain.append(s)
                    extend(chain)
                    chain.pop()

    for d in sorted(by_dim):
        for s in by_dim[d]:
            extend([s])
    return SimplicialComplex(chains)


def vertex_key_order(simplices):
    """Each simplex sorted by ``_vertex_key``, then by dimension and keys."""
    ordered = {tuple(sorted(s, key=_vertex_key)) for s in simplices}
    return tuple(
        sorted(
            ordered,
            key=lambda s: (len(s), tuple(_vertex_key(v) for v in s)),
        )
    )
