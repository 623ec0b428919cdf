"""Finite abelian group actions on simplicial complexes.

Each canonical generator's vertex permutation is turned once into the
permutations of simplex indices (i in degree d is ``space.simplices(d)[i]``)
of its powers, which ``simplex_permutation`` composes, each composition
one C-level gather.  The constructor validates its input: it sorts and
looks up the image of every simplex, and checks each generator's order
on the vertices.  One pass over the group's elements, made once per
action and kept on it, reads them into a table (``_StabilizerTable``):
each simplex's setwise stabilizer and the goodness certificate (every
setwise-stabilized simplex is pointwise fixed).  ``subdivide_action``
makes neither: a chain of faces is invariant exactly when each member
is, so the subdivision's table is read off the parent's, and its
permutations are built by the constructor only if asked for.  Every
reader below reads the table.  ``chi_defect_divisibility`` alone
requires a good action: it counts the simplices outside the fixed set,
and on a non-good action an invariant simplex may be only partly fixed.

``lefschetz_number``, ``fixed_set_chi``, ``component_chis``,
``generic_fixed_element``, ``assert_chi_preserved`` and
``gamma_chi_subgroup`` return invariants of the action on |X|, and read
them on the root action: ``subdivide_action`` records the action it
started from, ``SimplicialAction.root``, which may be non-good.  From
the root's table (Brown, *The Lefschetz Fixed Point Theorem*; tom Dieck,
*Transformation Groups*, ch. I):

- the Lefschetz number is Hopf's trace of the chain map,
  L(g) = sum_d (-1)^d sum over g sigma = sigma of sign(g | sigma);
- X^H is a disjoint union of open cells, one in each H-invariant simplex
  sigma, of dimension o_H(sigma) - 1, where o_H(sigma) counts the
  H-orbits on sigma's vertices; so chi(X^H) is the sum of
  (-1)^(o_H(sigma) - 1), also per component of X, and X^H is the
  complex K_H of the faces of those sigma on one vertex per orbit;
- X^<g> = X^H exactly when g and H leave the same simplices invariant.

On a good action every invariant simplex is pointwise fixed: K_H is the
fixed subcomplex, and each formula counts its simplices.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import namedtuple

from .bounds import _check_counts, chi_exponent
from .groups import (
    FiniteAbelianGroup,
    Subgroup,
    _check_enumerable,
    _json_field,
    _json_int,
    subgroups_of,
)
from .simplicial import (
    barycentric_subdivision,
    complex_from_json,
    complex_to_json,
    connected_components,
    homology,
)


class SimplicialAction:
    """Action of a finite abelian group on a simplicial complex, given by
    one dict per canonical generator from ``space.vertices`` to itself."""

    def __init__(self, group, space, vertex_images):
        self.group = group
        self.space = space
        self.vertex_images = tuple(map(dict, vertex_images))
        vset = set(space.vertices)
        for perm in self.vertex_images:
            if set(perm) != vset or set(perm.values()) != vset:
                raise ValueError("generator image is not a vertex permutation")
        if len(self.vertex_images) != group.rank:
            raise ValueError("need one permutation per canonical generator")
        _check_enumerable(group, "reading an action element by element")
        self._check_wellformed()
        self._table = None  # _StabilizerTable, set by _stabilizers
        self._root = None  # the root, if not this action; set by subdivide_action

    def _check_wellformed(self):
        """Keep each generator's powers as simplex index permutations."""
        space = self.space
        degrees = range(max(space.dimension, 0) + 1)  # degree 0 even if empty
        index = [{s: i for i, s in enumerate(space.simplices(d))} for d in degrees]
        self._identity = [tuple(range(len(ix))) for ix in index]
        self._powers = []  # [generator][power][degree] -> index permutation
        for gi, perm in enumerate(self.vertex_images):
            # Per degree, one C-level chain: each simplex's vertex images,
            # sorted, looked up as a simplex index.
            images = itertools.repeat(perm.__getitem__)
            try:
                gen = [
                    tuple(
                        map(ix.__getitem__, map(tuple, map(sorted, map(map, images, ix))))
                    )
                    for ix in index
                ]
            except KeyError as missing:
                raise ValueError(
                    f"generator {gi} maps a simplex onto "
                    f"{space.labelled(missing.args[0])}, which is not a simplex"
                ) from None
            m = self.group.factor_orders[gi]
            powers = [self._identity, gen]  # gen^0, ..., gen^(m-1)
            while len(powers) < m:
                powers.append(_compose(gen, powers[-1]))
            # gen^m is gen after gen^(m-1); on the vertices it decides the rest.
            if _gather(gen[0], powers[-1][0]) != self._identity[0]:
                raise ValueError(f"generator {gi} does not have order dividing {m}")
            self._powers.append(powers)
        vertex_level = [powers[1][:1] for powers in self._powers]
        for (i, a), (j, b) in itertools.combinations(enumerate(vertex_level), 2):
            if _compose(a, b) != _compose(b, a):
                raise ValueError(f"generators {i} and {j} do not commute")

    @property
    def root(self):
        """The action that ``subdivide_action``, called any number of times,
        started from; this action if no subdivision made it.  Both act on
        the same space |X|."""
        return self if self._root is None else self._root

    def simplex_permutation(self, element, d):
        """Permutation of the indices of ``space.simplices(d)`` by ``element``."""
        if element.group != self.group:
            raise ValueError("element of a different group")
        perm = None
        for r, powers in zip(element.residues, self._powers):
            if r:
                image = powers[r][d]
                perm = image if perm is None else _gather(image, perm)
        return self._identity[d] if perm is None else perm

    def to_json(self):
        """Generator images by vertex position, the numbers ``complex_to_json`` writes."""
        return {
            "group": self.group.to_json(),
            "complex": complex_to_json(self.space),
            "generator_images": [list(powers[1][0]) for powers in self._powers],
        }


class _SubdividedAction(SimplicialAction):
    """The action that ``subdivide_action`` builds on sd X: its group,
    space, root and stabilizer table.  Its vertex maps and power tables,
    which no invariant reader needs, come from the validating constructor
    on first request; until then the parent is kept to give the vertex
    maps: vertex k is simplex k of ``parent.space.simplices()``, and a
    generator sends it to the index of its image."""

    def __init__(self, parent, space, table):
        self.group = parent.group
        self.space = space
        self._table = table
        self._root = parent.root
        self._parent = parent
        self._validated_action = None

    def _validated(self):
        if self._validated_action is None:
            parent = self._parent
            degrees = range(parent.space.dimension + 1)
            sizes = map(len, map(parent.space.simplices, degrees))
            starts = list(itertools.accumulate(sizes, initial=0))
            images = [
                dict(enumerate(
                    start + j
                    for d, start in zip(degrees, starts)
                    for j in parent.simplex_permutation(g, d)
                ))
                for g in Subgroup.whole(self.group).basis_elements()
            ]
            self._validated_action = SimplicialAction(self.group, self.space, images)
            self._parent = None
        return self._validated_action

    @property
    def vertex_images(self):
        return self._validated().vertex_images

    @property
    def _identity(self):
        return self._validated()._identity

    @property
    def _powers(self):
        return self._validated()._powers


def _gather(outer, inner):
    """The tuple of ``outer[i]`` for i in ``inner``: ``outer`` after
    ``inner`` as index maps, in one C-level gather.  ``itemgetter`` of one
    index returns the item itself, and of none cannot be built."""
    inner = tuple(inner)
    if len(inner) > 1:
        return operator.itemgetter(*inner)(outer)
    return tuple(map(outer.__getitem__, inner))


def _compose(outer, inner):
    """Per degree, the index permutation ``outer`` after ``inner``."""
    return list(map(_gather, outer, inner))


def action_from_json(data):
    """Action whose ``generator_images[k][v]`` is generator k's image of
    the vertex labelled v, as a label: a JSON integer, not a boolean.
    Each generator image is a JSON list."""
    group = FiniteAbelianGroup.from_json(_json_field(data, "group", "action"))
    space = complex_from_json(_json_field(data, "complex", "action"))
    images = _json_field(data, "generator_images", "action")
    for perm in images:
        if not isinstance(perm, list):
            raise ValueError(f"generator image {perm!r} is not a list")
    number = {label: v for v, label in enumerate(space.labels)}.get
    perms = [
        {
            number(v): number(_json_int(perm[v], "generator image"))
            for v in range(len(perm))
        }
        for perm in images
    ]
    return SimplicialAction(group, space, perms)


class GoodnessCertificate(namedtuple("GoodnessCertificate", "is_good witnesses")):
    """Witnesses are (element, simplex, moved vertex), the last two in labels."""

    __slots__ = ()

    def to_json(self):
        return {
            "is_good": self.is_good,
            "witnesses": [
                {
                    "element": list(g.residues),
                    "simplex": [str(v) for v in s],
                    "moved_vertex": str(v),
                }
                for g, s, v in self.witnesses
            ],
        }


def validate_good(action):
    """Check that setwise-stabilized simplices are pointwise fixed, in the
    pass that builds the action's stabilizer table: once per action."""
    return _stabilizers(action).goodness


def subdivide_action(action):
    """Induced action on the barycentric subdivision, whose vertex k is the
    k-th simplex, with its stabilizer table read off the action's.

    An element g fixes a chain of faces s_0 < ... < s_d setwise exactly
    when it fixes each member: g keeps dimensions, and the members'
    dimensions are distinct.  So the chain's stabilizer is the
    intersection of its members', its mask the AND of theirs, and every
    invariant chain is fixed vertex by vertex: the subdivision is good,
    with no witness.  Nothing is permuted or checked here; the simplex
    permutations come from the validating constructor on first request.
    """
    table = _stabilizers(action)
    sd = barycentric_subdivision(action.space)
    return _SubdividedAction(action, sd, _subdivided_table(table, sd))


def fixed_subcomplex(action, subgroup):
    """K_H, whose realization is X^H: the face of each H-invariant simplex
    on the least vertex of each H-orbit on it (``_fixed_cells``), with
    the space's vertex numbers and labels.  On a good action each such
    orbit is one vertex: K_H is the full subcomplex on the fixed vertices,
    and the space itself, uncopied, when H fixes every vertex
    (``SimplicialComplex.induced``)."""
    table = _stabilizers(action, subgroup)
    if not table.goodness.is_good:
        return action.space.subcomplex(_fixed_cells(action, subgroup).values())
    need = table.mask(subgroup.basis_residues)
    kept = (v for v, mask in zip(table.vertices, table.masks) if mask & need == need)
    return action.space.induced(kept)


class _StabilizerTable(
    namedtuple("_StabilizerTable", "vertices simplices bits masks goodness")
):
    """Setwise stabilizers of one action's simplices, and its goodness.

    Element number i of ``group.elements()`` is bit i of a mask, ``bits``
    by residues; element 0 is the identity.  ``masks[k]`` is the mask of
    the setwise stabilizer of ``simplices[k]`` (``space.simplices()``,
    vertices first), a subgroup: H leaves a simplex invariant exactly when
    its mask holds the bits of H's basis, <g> when it holds g's bit, and
    the mask's bit count is the stabilizer's order.  ``goodness`` names,
    by element, degree and simplex, each invariant simplex its element
    moves a vertex of.  ``_element_pass`` builds it for an action the
    constructor built, ``_subdivided_table`` for a subdivision.
    """

    __slots__ = ()

    def mask(self, residues):
        """The bits of these elements: a simplex is invariant under the
        subgroup they generate exactly when its mask holds them all."""
        return functools.reduce(operator.or_, map(self.bits.__getitem__, residues), 0)

    def invariant(self, need):
        """The simplices whose stabilizer mask holds every bit of ``need``."""
        return [s for s, mask in zip(self.simplices, self.masks) if mask & need == need]


def _element_pass(action):
    """The stabilizer table of ``action``, in one pass over the group's
    elements and each one's simplex permutations."""
    space = action.space
    vertices = space.vertices
    simplices = space.simplices()
    bits = {}
    masks = [1] * len(simplices)  # bit 0, the identity
    witnesses = []
    for i, g in enumerate(action.group.elements()):
        bit = bits[g.residues] = 1 << i
        if not i:
            continue  # the identity, already in every mask
        moved = set()
        for j, k in enumerate(action.simplex_permutation(g, 0)):  # vertex j is simplex j
            if j == k:
                masks[j] |= bit
            else:
                moved.add(vertices[j])
        start = len(vertices)
        for d in range(1, space.dimension + 1):
            perm = action.simplex_permutation(g, d)
            for j, s in enumerate(space.simplices(d)):
                if perm[j] == j:
                    masks[start + j] |= bit
                    if not moved.isdisjoint(s):
                        v = next(v for v in s if v in moved)
                        witnesses.append((g, space.labelled(s), space.labels[v]))
            start += len(perm)
    goodness = GoodnessCertificate(not witnesses, tuple(witnesses))
    return _StabilizerTable(vertices, simplices, bits, masks, goodness)


def _subdivided_table(parent, space):
    """The stabilizer table of ``space``, the subdivision of the space whose
    table is ``parent``: each chain's mask is the AND of its members'
    (``subdivide_action``), and no invariant chain moves a vertex."""
    simplices = space.simplices()
    members = map(map, itertools.repeat(parent.masks.__getitem__), simplices)
    masks = list(map(functools.reduce, itertools.repeat(operator.and_), members))
    goodness = GoodnessCertificate(True, ())
    return _StabilizerTable(space.vertices, simplices, parent.bits, masks, goodness)


def _vertex_map(action, element):
    """An element's map of vertex numbers, read off its vertex permutation."""
    v = action.space.vertices
    return dict(zip(v, map(v.__getitem__, action.simplex_permutation(element, 0))))


def _fixed_cells(action, subgroup):
    """{H-invariant simplex sigma: its face on the least vertex of each
    H-orbit on sigma}.

    The points of sigma that H fixes are the convex combinations of the
    orbits' barycentres, an open cell of dimension o_H(sigma) - 1 that
    sending each barycentre to its orbit's least vertex maps onto the
    face.  An invariant face of sigma is a union of orbits, so the faces
    form a subcomplex K_H with |K_H| = X^H (tom Dieck, ch. I).  Orbits
    are walked from the moved vertices of invariant simplices only.
    """
    table = _stabilizers(action, subgroup)
    invariant = table.invariant(table.mask(subgroup.basis_residues))
    fixed = (s[0] for s in invariant if len(s) == 1)  # the invariant vertices
    moved = set(itertools.chain.from_iterable(invariant)).difference(fixed)
    maps = [_vertex_map(action, g) for g in subgroup.basis_elements()] if moved else ()
    least = {}  # moved vertex -> the least vertex of its H-orbit
    for v in sorted(moved):  # each orbit is first met at its least vertex
        todo = [v]
        while todo:
            w = todo.pop()
            if w not in least:
                least[w] = v
                todo.extend(image[w] for image in maps)
    return {s: tuple(v for v in s if least.get(v, v) == v) if least else s for s in invariant}


def _stabilizers(action, subgroup=None):
    """The stabilizer table of ``action``, built on first use and kept on it.

    ValueError if ``subgroup`` is given and is a subgroup of another group.
    """
    if subgroup is not None and subgroup.parent != action.group:
        raise ValueError("subgroup of a different group")
    if action._table is None:  # a subdivision's is set when it is made
        action._table = _element_pass(action)
    return action._table


def _orientation(images):
    """+1 or -1: the sign of the permutation that sorts ``images``."""
    inversions = sum(itertools.starmap(operator.gt, itertools.combinations(images, 2)))
    return -1 if inversions % 2 else 1


def lefschetz_number(action, element):
    """L(g) by Hopf's trace formula, read on the root action.

    The trace of g on the chain group C_d has one diagonal entry per
    d-simplex that g maps to itself: the sign of the permutation of its
    ordered vertices.  So L(g) = sum_d (-1)^d sum of those signs, for any
    action, good or not (Brown, *The Lefschetz Fixed Point Theorem*).  On
    a good action every sign is +1, and L(g) counts the fixed subcomplex
    of <g> by degree: its Euler characteristic.
    """
    if element.group != action.group:
        raise ValueError("element of a different group")
    root = action.root
    table = _stabilizers(root)
    bit = table.bits[element.residues]
    image = _vertex_map(root, element)
    return sum(
        (-1) ** (len(s) - 1) * _orientation(list(map(image.__getitem__, s)))
        for s, mask in zip(table.simplices, table.masks)
        if mask & bit
    )


def fixed_set_chi(action, subgroup):
    """chi(X^H) = sum of (-1)^(o_H(sigma) - 1) over the H-invariant simplices
    sigma of the root action, o_H(sigma) the number of H-orbits on
    sigma's vertices: X^H is a disjoint union of open cells, one of
    dimension o_H(sigma) - 1 in each, the faces of K_H (``_fixed_cells``)."""
    root = action.root
    cells = _fixed_cells(root, subgroup)
    return sum((-1) ** (len(face) - 1) for face in cells.values())


def component_chis(action, subgroup):
    """(chi(C), chi(C^H)) for each component C of the root action's space,
    in ``connected_components`` order; chi(C^H) sums the cells of X^H in
    the simplices of C."""
    root = action.root
    cells = _fixed_cells(root, subgroup)
    out = []
    for comp in connected_components(root.space):
        inside = set(comp.vertices)
        fixed_chi = sum((-1) ** (len(f) - 1) for s, f in cells.items() if s[0] in inside)
        out.append((comp.euler_characteristic(), fixed_chi))
    return out


def generic_fixed_element(action, subgroup):
    """The first element g of H, in ``subgroup.elements()`` order, with
    X^<g> = X^H; None if there is none.

    X^<g> contains X^H, and the two are equal exactly when g and H leave
    the same simplices of the root action invariant: were an orbit of H
    on an invariant simplex larger than g's orbit tau there, tau would be
    a g-invariant face that H moves.
    """
    table = _stabilizers(action.root, subgroup)
    fixed = table.invariant(table.mask(subgroup.basis_residues))
    for g in subgroup.elements():
        if table.invariant(table.bits[g.residues]) == fixed:
            return g
    return None


class DivisibilityVerdict(
    namedtuple("DivisibilityVerdict", "status defect modulus witnesses", defaults=((),))
):
    """``status`` is "divisible", "not_divisible" or "hypothesis_violated"."""

    __slots__ = ()

    @property
    def ok(self):
        return self.status == "divisible"

    def to_json(self):
        return {
            "status": self.status,
            "defect": self.defect,
            "modulus": self.modulus,
            "witnesses": [str(w) for w in self.witnesses],
        }


def chi_defect_divisibility(action, gamma0, n):
    """Check p^(n+1) | chi(X) - chi(X^Gamma0) by orbit bookkeeping.

    The hypothesis that every simplex outside the fixed set has stabilizer
    of index >= p^(n+1) is verified first; a violation is reported as its
    own verdict, not as failure.  Raises ValueError if n is not a
    nonnegative int, or if the action is not good: the orbit count needs
    X^Gamma0 to be the union of the simplices Gamma0 leaves invariant."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError(f"n = {n!r} is not a nonnegative integer")
    group = action.group
    if not group.is_p_group() or group.order == 1:
        raise ValueError("divisibility argument needs a nontrivial p-group")
    p = group.primary_decomposition[0][0]
    modulus = p ** (n + 1)
    table = _stabilizers(action, gamma0)
    if not table.goodness.is_good:
        raise ValueError("the orbit count needs a good action")
    need = table.mask(gamma0.basis_residues)
    witnesses = []
    defect = 0
    for s, mask in zip(table.simplices, table.masks):
        if mask & need != need:
            defect += (-1) ** (len(s) - 1)
            # The stabilizer's index: the orbit size of the simplex.
            index = group.order // mask.bit_count()
            if index < modulus:
                witnesses.append((action.space.labelled(s), index))
    if witnesses:
        return DivisibilityVerdict(
            "hypothesis_violated", defect, modulus, tuple(witnesses[:5])
        )
    status = "divisible" if defect % modulus == 0 else "not_divisible"
    return DivisibilityVerdict(status, defect, modulus)


def action_kernel(action):
    """Subgroup of elements acting as the identity permutation: their
    bits are in every vertex's stabilizer mask."""
    table = _stabilizers(action)
    kernel = functools.reduce(operator.and_, table.masks[: len(table.vertices)], -1)
    held = map(kernel.__and__, table.bits.values())
    return Subgroup.from_rows(action.group, itertools.compress(table.bits, held))


def assert_chi_preserved(action, subgroup):
    """Check chi(X^S) = chi(X) for every subgroup S of ``subgroup``, on
    the root action (``fixed_set_chi``).

    The subgroups are enumerated by (order, basis); the AssertionError
    names the first one that changes chi.
    """
    root = action.root
    chi = root.space.euler_characteristic()
    for sub in subgroups_of(subgroup):
        fixed_chi = fixed_set_chi(root, sub)
        if fixed_chi != chi:
            raise AssertionError(
                f"chi not preserved by the subgroup generated by "
                f"{[list(r) for r in sub.basis_residues]}: {fixed_chi} != {chi}"
            )


def gamma_chi_subgroup(action, mu, verify=True):
    """Subgroup whose subgroups all preserve chi, with its index bound.

    For a p-group action: n is the smallest integer with
    p^(n+1) > 2 * sum_j b_j(X; F_p); the subgroup is the group of
    p^n-th powers modulo the action kernel, of index at most p^(n*mu).
    When ``verify`` is set and the space has no odd cohomology, the
    chi-preservation is checked on every subgroup, each one enumerated.
    The homology over F_p, the kernel and the check are read on the root
    action, whose space is |X| before any subdivision.
    """
    group = action.group
    if not group.is_p_group():
        raise ValueError("gamma_chi_subgroup needs a p-group action")
    _check_counts("mu", [mu])
    if group.order == 1:
        return Subgroup.whole(group), 1
    p = group.primary_decomposition[0][0]
    action = action.root
    profile = homology(action.space, primes=(p,))
    n = chi_exponent(p, profile.total_betti_mod(p))
    kernel_sub = action_kernel(action)
    gamma_chi = Subgroup.whole(group).powers(p ** n).join(kernel_sub)
    # Index bound via the rank of the effective quotient.
    r = len(kernel_sub.quotient_invariant_factors())
    bound = p ** (n * mu)
    if gamma_chi.index > p ** (n * r):
        raise AssertionError("index exceeds p^(n r); power subgroup broken")
    if r > mu:
        raise ValueError(
            f"effective rank {r} exceeds the supplied Mann-Su constant {mu}"
        )
    if verify and profile.has_no_odd_cohomology():
        assert_chi_preserved(action, gamma_chi)
    return gamma_chi, bound
