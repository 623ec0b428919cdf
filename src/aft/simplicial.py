"""Finite simplicial complexes with exact homology over Z and F_p.

A complex built from labels numbers its vertices 0..n-1 once, in
``_vertex_key`` order, and keeps the labels aside for I/O and reports;
simplices are increasing int tuples, so boundary signs and results are
deterministic across runs.  Only the public constructor checks that
every face is there: ``build_complex`` and barycentric subdivision close
their output by construction and emit each degree already sorted.
``complex_from_json`` and ``build_complex`` check their input with
C-level passes over all simplices at once (types, emptiness, repeats);
only when a pass fails does the per-simplex loop run, to find and name
the first fault.
Barycentric subdivision numbers its vertices by the input's simplices
and extends chains of faces degree by degree through a coface index, in
time linear in its output.

``homology`` coreduces the chain complex on its face poset before any
matrix is built (``_coreduce``; Mrozek and Batko, Discrete Comput. Geom.
41, 2009).  Degree by degree, each d-simplex's facets are looked up once
(``_facets``, which ``boundary_entries`` reads too), each (d-1)-simplex's
cofaces are bucketed in one pass over those facets, and a simplex whose
only alive facet is f leaves with f: its boundary on the alive cells is
+-f, so what stays is the boundary restricted to the surviving cells,
with no Schur update.  A simplex keeps only its count of alive facets;
the last one is read off its own facets when it leaves, so no running
facet sum is kept.  In degree 1 the coreduction seeds one vertex per
component and drops its row from d_1; the rows of one component sum to
zero, so that is a unimodular change of basis of C_0.  Only the
surviving cells, on the complexes aft builds about as many as the Betti
numbers count, enter the matrix core: the certified reduction over Z
(``integermat.reduce_chain_complex``) finishes wherever the coreduction
stalls, and its residual boundaries compose to zero, live on surviving
cells only, and keep the Euler characteristic.  Integral homology is the
sparse Smith diagonalization of that residual, and each mod-p Betti
number comes from its rank over F_p.  Because both routes read the same
residual, ``homology`` checks H_0 against the components of the
1-skeleton (a union-find, which the seeds do not read), the surviving
cells against the Euler characteristic of the complex, and the two
routes against each other through universal coefficients.  The Euler
check reads the integral Betti numbers, but for any ranks r_d of the
residual maps sum_d (-1)^d (c_d - r_d - r_(d+1)) = sum_d (-1)^d c_d,
with c_d the surviving d-cells: it compares those cells with chi(X),
and every F_p alternating Betti sum equals that same number.
"""

from __future__ import annotations

import itertools
from collections import deque, namedtuple

from .integermat import (
    check_prime,
    factorize,
    rank_mod_p,
    reduce_chain_complex,
    smith_diagonal,
)

DEFAULT_PRIMES = (2, 3, 5)


class SimplicialComplex:
    """Immutable face-closed complex on int vertices; v is ``labels[v]``.

    The constructor takes simplices of hashable labels, in any vertex
    order, and raises ValueError on an empty simplex, a repeated vertex or
    a missing face; it is the one path whose input is not closed by
    construction.  Each ``simplices(d)`` is sorted, and complexes with the
    same simplices as sets of labels are equal.
    """

    def __init__(self, simplices):
        labels, simplices = _number(simplices)
        by_dim: dict[int, set] = {}
        for s in simplices:
            if not s or len(set(s)) != len(s):
                _check_simplex(labels, s)
            by_dim.setdefault(len(s) - 1, set()).add(s)
        self.labels = labels
        for d, ss in by_dim.items():
            below = by_dim.get(d - 1, set())
            for s in ss if d else ():  # a vertex has no proper face
                if not below.issuperset(itertools.combinations(s, d)):
                    face = next(
                        f for f in itertools.combinations(s, d) if f not in below
                    )
                    raise ValueError(
                        f"face {self.labelled(face)} of {self.labelled(s)} missing"
                    )
        self._set(labels, {d: tuple(sorted(by_dim[d])) for d in sorted(by_dim)})

    def _set(self, labels, by_dim):
        """Set up from sorted tuples of increasing tuples of numbers into
        ``labels``, keyed by ascending degree, unchecked."""
        self.labels = labels
        self._by_dim = by_dim
        self.vertices = tuple(v for (v,) in by_dim.get(0, ()))
        self.dimension = max(by_dim, default=-1)
        return self

    def labelled(self, simplex):
        """The labels of a simplex's vertices, in vertex order."""
        return tuple(map(self.labels.__getitem__, simplex))

    def induced(self, vertices):
        """Full subcomplex on ``vertices``: every simplex they all span.

        It keeps this complex's vertex numbers and labels, so the kept
        simplices stay in order and are neither sorted nor checked again.
        When every vertex is kept that subcomplex is this one, with the
        same labels, numbers and simplices; a complex is immutable, so it
        is returned itself.
        """
        keep = set(vertices)
        if keep.issuperset(self.vertices):
            return self
        by_dim = {}
        for d, ss in self._by_dim.items():
            kept = tuple(filter(keep.issuperset, ss))
            if not kept:  # no face in degree d, so no simplex above it
                break
            by_dim[d] = kept
        return object.__new__(SimplicialComplex)._set(self.labels, by_dim)

    def subcomplex(self, simplices):
        """Face-closed ``simplices`` of this complex as a subcomplex that keeps
        its vertex numbers and labels, as ``induced`` does; sorted, unchecked."""
        ordered = sorted(simplices, key=lambda s: (len(s), s))
        by_dim = {d - 1: tuple(ss) for d, ss in itertools.groupby(ordered, len)}
        return object.__new__(SimplicialComplex)._set(self.labels, by_dim)

    def simplices(self, dim=None):
        if dim is not None:
            return self._by_dim.get(dim, ())
        by_dim = self._by_dim
        return tuple(itertools.chain.from_iterable(by_dim[d] for d in sorted(by_dim)))

    def counts(self):
        return {d: len(ss) for d, ss in self._by_dim.items()}

    def num_simplices(self):
        return sum(len(ss) for ss in self._by_dim.values())

    def euler_characteristic(self):
        return sum((-1) ** d * len(ss) for d, ss in self._by_dim.items())

    def maximal_simplices(self):
        faces = {
            f
            for d, ss in self._by_dim.items()
            for s in ss
            for f in itertools.combinations(s, d)
        }
        return tuple(s for s in self.simplices() if s not in faces)

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return False
        if self.labels == other.labels:  # one numbering: compare the ints
            return self._by_dim == other._by_dim
        mine = {frozenset(self.labelled(s)) for s in self.simplices()}
        return mine == {frozenset(other.labelled(s)) for s in other.simplices()}

    def __hash__(self):
        return hash(frozenset(self.labelled(self.vertices)))

    def __repr__(self):
        return (
            f"SimplicialComplex(dim={self.dimension}, "
            f"simplices={self.num_simplices()})"
        )


def _number(simplices):
    """Labels in ``_vertex_key`` order; simplices as sorted tuples of numbers."""
    simplices = list(map(tuple, simplices))
    labels = tuple(sorted(set(itertools.chain.from_iterable(simplices)), key=_vertex_key))
    number = dict(zip(labels, range(len(labels))))
    renumbered = map(map, itertools.repeat(number.__getitem__), simplices)
    return labels, list(map(tuple, map(sorted, renumbered)))


def _vertex_key(v):
    # Allow mixed label types (ints, strings, tuples).
    return (str(type(v).__name__), v if isinstance(v, (int, str)) else str(v))


def _check_simplex(labels, simplex):
    """Raise ValueError on an empty simplex or a repeated vertex."""
    if not simplex:
        raise ValueError("empty simplex")
    if len(set(simplex)) != len(simplex):
        raise ValueError(
            f"repeated vertex in simplex {tuple(labels[v] for v in simplex)}"
        )


def build_complex(maximal_simplices):
    """Face closure of the given simplices.

    Raises ValueError on an empty simplex, a repeated vertex or a maximal
    simplex given twice.  Three passes over all the simplices check that
    at once; only when one fails does a loop find the first fault, simplex
    by simplex, and report it.  Degree k - 1 is every k-subset of the
    maximal simplices, sorted.  A face of a simplex with distinct vertices
    has distinct vertices, and a face of a k-subset of t is a smaller
    subset of t, so the closure is neither checked for repeats nor for
    missing faces again.
    """
    labels, maximal = _number(maximal_simplices)
    if not (
        all(maximal)
        and len(set(maximal)) == len(maximal)
        and list(map(len, maximal)) == list(map(len, map(set, maximal)))
    ):
        seen = set()
        for t in maximal:
            _check_simplex(labels, t)
            if t in seen:
                raise ValueError(
                    f"duplicate maximal simplex {tuple(labels[v] for v in t)}"
                )
            seen.add(t)
    by_dim = {
        k - 1: tuple(
            sorted(
                set(
                    itertools.chain.from_iterable(
                        map(itertools.combinations, maximal, itertools.repeat(k))
                    )
                )
            )
        )
        for k in range(1, max(map(len, maximal), default=0) + 1)
    }
    return object.__new__(SimplicialComplex)._set(labels, by_dim)


def complex_from_json(data):
    """Complex from ``{"maximal_simplices": [[v, ...], ...]}``.

    Raises ValueError unless every simplex is a non-empty list of vertices
    that are JSON ints (not booleans) or strings.  Passes over the types
    of all simplices and all vertices check that at once; only when one
    fails does a loop find the first fault and report it.
    """
    if not isinstance(data, dict):
        raise ValueError("a complex is a JSON object")
    if "maximal_simplices" not in data:
        raise ValueError("complex has no 'maximal_simplices' field")
    simplices = data["maximal_simplices"]
    if not isinstance(simplices, list):
        raise ValueError("maximal_simplices must be a list of simplices")
    if not (
        set(map(type, simplices)) <= {list}
        and all(simplices)
        and set(map(type, itertools.chain.from_iterable(simplices))) <= {int, str}
    ):
        for s in simplices:
            if not isinstance(s, list) or not s:
                raise ValueError(f"simplex {s!r} is not a non-empty list")
            for v in s:
                if isinstance(v, bool) or not isinstance(v, (int, str)):
                    raise ValueError(f"vertex {v!r} is neither an int nor a string")
    return build_complex(simplices)


def complex_to_json(complex_):
    """``{"maximal_simplices": ...}`` with the vertices renumbered 0..n-1."""
    dense = {v: i for i, v in enumerate(complex_.vertices)}
    return {
        "maximal_simplices": [
            [dense[v] for v in s] for s in complex_.maximal_simplices()
        ]
    }


class HomologyProfile(namedtuple("HomologyProfile", "betti_Z betti_mod_p euler")):
    """Betti data over Z and selected F_p, plus the Euler characteristic.

    ``betti_Z`` lists (rank, torsion) per degree where torsion is a sorted
    tuple of prime powers; ``betti_mod_p`` maps a prime to the list of
    F_p-ranks per degree.
    """

    __slots__ = ()

    def ranks(self):
        return [r for r, _ in self.betti_Z]

    def torsion_primes(self):
        return {factorize(q)[0][0] for _, tors in self.betti_Z for q in tors}

    def has_no_odd_cohomology(self):
        """Torsion-free homology supported in even degrees."""
        for j, (rank, torsion) in enumerate(self.betti_Z):
            if torsion:
                return False
            if j % 2 == 1 and rank:
                return False
        return True

    def total_betti_mod(self, p):
        return sum(self.betti_mod_p[p])

    def to_json(self):
        return {
            "betti_Z": [
                {"rank": r, "torsion": list(t)} for r, t in self.betti_Z
            ],
            "betti_mod_p": {
                str(p): list(bs) for p, bs in sorted(self.betti_mod_p.items())
            },
            "euler": self.euler,
            "no_odd_cohomology": self.has_no_odd_cohomology(),
        }


def _facets(complex_, dim):
    """The boundary d_dim: C_dim -> C_(dim-1) as a flat list of rows.

    Returns ``(rows, signs)``: entry (dim + 1) * j + i of ``rows`` is the
    facet that ``itertools.combinations`` yields i-th from the j-th
    dim-simplex, which is that simplex without its vertex dim - i, and
    ``signs[i]`` = (-1)^(dim - i) is its entry in d_dim.  One dict lookup
    per facet; ``boundary_entries`` and ``_coreduce`` both read d from
    here.
    """
    below = complex_.simplices(dim - 1)
    index = dict(zip(below, range(len(below))))
    rows = list(
        map(
            index.__getitem__,
            itertools.chain.from_iterable(
                map(itertools.combinations, complex_.simplices(dim), itertools.repeat(dim))
            ),
        )
    )
    return rows, [(-1) ** (dim - i) for i in range(dim + 1)]


def boundary_entries(complex_, dim):
    """Sparse boundary matrix d_dim: C_dim -> C_(dim-1).

    Returns a list of (row, col, sign) triples, column by column: the
    facet of simplex ``col`` without its i-th vertex is simplex ``row`` of
    degree dim - 1, with sign (-1)^i, for i = 0..dim in turn.
    """
    rows, signs = _facets(complex_, dim)
    return [
        (rows[t + i], t // (dim + 1), signs[i])
        for t in range(0, len(rows), dim + 1)
        for i in range(dim, -1, -1)
    ]


def _coreduce(complex_):
    """Coreductions of the chain complex of ``complex_`` on its face poset.

    Degree by degree, each d-simplex gets its facets' rows (``_facets``)
    and ``_pair_off`` removes coreduction pairs (Mrozek and Batko,
    Discrete Comput. Geom. 41, 2009): a simplex c whose only alive facet
    is f leaves together with f.  Restricted to the alive cells d(c) =
    +-f, so the elementary reduction at (f, c) changes no other column,
    and what stays is d restricted to the surviving cells, with no Schur
    update.  Its set-up is one pass over the rows for the alive-facet
    counts and one that buckets each (d-1)-simplex's cofaces in
    ascending order; no facet sums are kept and nothing is sorted.

    In degree 1 a vertex still alive when the queue drains becomes a
    seed: its row leaves d_1 and it survives as a 0-cell.  The rows of
    one component of d_1 sum to zero, so dropping one row per component
    is a unimodular change of basis of C_0.  The seeds are found by the
    coreduction itself, one per component; nothing here reads the
    components that ``homology`` checks H_0 against.

    Returns ``(sizes, boundaries)`` for ``reduce_chain_complex``: the
    number of surviving cells per degree, numbered 0.. in simplex order,
    and each d_d (d = 1..top) restricted to them as (row, col, sign)
    triples; both are empty for the empty complex.  Where the
    coreduction stalls, the matrix core finishes.
    """
    top = complex_.dimension
    alive = [bytearray(b"\x01") * len(complex_.simplices(d)) for d in range(top + 1)]
    seeds = 0
    boundaries = []
    for d in range(1, top + 1):
        rows, signs = _facets(complex_, d)
        seeds += _pair_off(rows, d + 1, alive[d - 1], alive[d], seed=d == 1)
        if d > 1:  # d_(d-1) is final once degree d - 1 has paired off too
            boundaries.append(_residual(alive[d - 2], alive[d - 1], *previous))
        previous = rows, signs
    if top > 0:
        boundaries.append(_residual(alive[top - 1], alive[top], *previous))
    sizes = [flags.count(1) for flags in alive]
    if seeds:  # seeds come from degree 1, so sizes is not empty
        sizes[0] += seeds
    return sizes, boundaries


def _pair_off(rows, k, lower, upper, seed):
    """Coreduce one degree in place: clear the ``lower`` and ``upper``
    alive flags of each pair.

    ``rows`` lists the k facets of each upper cell (``_facets``).  Each
    upper cell keeps only its number of alive facets, counted in one pass
    over the facets' flags, and a FIFO queue holds the cells down to one;
    a popped cell finds that facet among its own k rows.  Each lower
    cell's cofaces are bucketed in one pass over ``rows``, so they
    ascend.  With ``seed``, whenever the queue drains the first alive
    lower cell leaves alone; returns the number of such seeds.
    """
    count = list(map(sum, zip(*[iter(bytes(map(lower.__getitem__, rows)))] * k)))
    cofaces = [[] for _ in lower]
    for t, f in enumerate(rows):
        cofaces[f].append(t // k)
    queue = deque(itertools.compress(range(len(count)), map((1).__eq__, count)))
    seeds = first = 0
    while queue or seed:
        if queue:
            c = queue.popleft()
            if count[c] != 1:
                continue  # it left, or its last alive facet did
            upper[c] = 0
            for f in rows[k * c : k * c + k]:
                if lower[f]:
                    break
        else:
            f = first = lower.find(1, first)
            if f < 0:
                break
            seeds += 1
        lower[f] = 0
        for c in cofaces[f]:
            count[c] -= 1
            if count[c] == 1:
                queue.append(c)
    return seeds


def _residual(lower, upper, rows, signs):
    """The (row, col, sign) triples of d between the alive cells, renumbered."""
    k = len(signs)
    number = {f: i for i, f in enumerate(itertools.compress(range(len(lower)), lower))}
    return [
        (number[f], j, signs[i])
        for j, c in enumerate(itertools.compress(range(len(upper)), upper))
        for i, f in enumerate(rows[k * c : k * c + k])
        if f in number
    ]


def homology(complex_, primes=DEFAULT_PRIMES):
    """Exact homology profile; raises if internal cross-checks fail.

    Raises ValueError unless every entry of ``primes`` is prime.
    """
    for p in primes:
        check_prime(p)
    if complex_.dimension < 0:
        return HomologyProfile((), {p: [] for p in primes}, 0)
    top = complex_.dimension
    # Coreduce on the face poset, reduce what is left once over Z, then
    # take the Smith diagonals and the F_p ranks of the reduced boundary
    # maps (deg 1 .. top).
    cells, residual = reduce_chain_complex(*_coreduce(complex_))
    sizes = [len(cs) for cs in cells]
    degrees = range(1, top + 1)
    diagonals = [[], *(smith_diagonal(residual[d]) for d in degrees), []]
    ranks_fp = {
        p: [0, *(rank_mod_p(residual[d], p) for d in degrees), 0] for p in primes
    }

    betti_z = []
    for d in range(top + 1):
        rank = sizes[d] - len(diagonals[d]) - len(diagonals[d + 1])
        torsion = []
        for v in diagonals[d + 1]:
            torsion.extend(p**e for p, e in factorize(v))
        betti_z.append((rank, tuple(sorted(torsion))))

    betti_p = {
        p: [sizes[d] - ranks[d] - ranks[d + 1] for d in range(top + 1)]
        for p, ranks in ranks_fp.items()
    }

    # Both routes read the same reduction, so check it against a third:
    # H_0 has one generator per component of the 1-skeleton.
    components = len(set(_component_roots(complex_)))
    if betti_z[0][0] != components:
        raise AssertionError(
            f"H_0 cross-check failed: rank {betti_z[0][0]} != {components} components"
        )
    euler = complex_.euler_characteristic()
    alt_z = sum((-1) ** d * r for d, (r, _) in enumerate(betti_z))
    if alt_z != euler:
        raise AssertionError(
            f"Euler cross-check failed over Z: {alt_z} != {euler}"
        )
    for p in primes:
        # Universal coefficients: b_j(F_p) = b_j + t_j(p) + t_(j-1)(p), where
        # t_j(p) counts the torsion prime powers of H_j divisible by p.
        for d, b in enumerate(betti_p[p]):
            torsion = betti_z[d][1] + (betti_z[d - 1][1] if d else ())
            expected = betti_z[d][0] + sum(1 for q in torsion if q % p == 0)
            if b != expected:
                raise AssertionError(
                    f"universal coefficients failed over F_{p} in degree "
                    f"{d}: {b} != {expected}"
                )
    return HomologyProfile(tuple(betti_z), betti_p, euler)


def _component_roots(complex_):
    """Union-find root of each vertex over the edges.

    The parents sit in a list indexed by vertex number, which for an
    induced subcomplex runs past its vertex count.
    """
    parent = list(range(max(complex_.vertices, default=-1) + 1))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for s in complex_.simplices(1):
        a, b = find(s[0]), find(s[1])
        if a != b:
            parent[a] = b
    return [find(v) for v in complex_.vertices]


def connected_components(complex_):
    """Vertex-connected subcomplexes, each with its own dimension."""
    groups: dict = {}
    for v, root in zip(complex_.vertices, _component_roots(complex_)):
        groups.setdefault(root, []).append(v)
    return [complex_.induced(groups[root]) for root in sorted(groups)]


def barycentric_subdivision(complex_):
    """Subdivision whose vertex i is, and is labelled by, the input's i-th
    simplex.

    Simplices are chains of faces, built degree by degree: each chain of
    degree d is extended by every coface of its last member, through a
    coface index built from the at most 2^(d+1) faces of each d-simplex,
    so the cost is linear in the output.  Nothing is sorted or checked
    afterwards, because the construction guarantees it:

    - a coface comes later in ``simplices()``, which runs by dimension, so
      every chain strictly increases and its vertices are distinct;
    - a face of a chain is a subsequence, again a chain since face
      inclusion is transitive, and every chain is reached from its prefix,
      so the result is closed;
    - each coface list ascends (j is appended in increasing order), so a
      sorted degree extended chain by chain, ascending in the new last
      member, is sorted again.
    """
    simplices = complex_.simplices()
    index = {s: i for i, s in enumerate(simplices)}
    cofaces = [[] for _ in simplices]
    for j, s in enumerate(simplices):
        for k in range(1, len(s)):
            for face in itertools.combinations(s, k):
                cofaces[index[face]].append(j)
    by_dim = {}
    chains = [(i,) for i in range(len(simplices))]
    while chains:
        by_dim[len(by_dim)] = tuple(chains)
        chains = [c + (j,) for c in chains for j in cofaces[c[-1]]]
    labels = tuple(map(complex_.labelled, simplices))
    return object.__new__(SimplicialComplex)._set(labels, by_dim)
