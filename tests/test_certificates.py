"""Every certificate in the library can fire.

A certificate is a ``raise AssertionError(...)`` in ``src/aft``: a check
that a claim the library relies on holds for the answer at hand.  Each
one is keyed by (module, enclosing function, message), the message with
every formatted value written ``{}``, and ``CASES`` maps each key to one
case per site with that key, in source order.  A case corrupts a result
upstream of the site with ``monkeypatch`` (or, for the corpus metadata,
builds an entry with one wrong field), never the site's own bound or
constant, and the test requires the site itself to raise, with its
message; run without its corruption, the same case must pass.  A site
with no case fails, and so does a case with no site: a check that no
input can reach is deleted, with the reason it is implied written down,
rather than kept.  Certificates are raised, never ``assert``-ed, because
``python -O`` strips asserts.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

import pytest

import aft.actions
import aft.integermat
import aft.linear
import aft.pipeline
import aft.simplicial
from aft import bounds, corpus, groups
from aft.actions import SimplicialAction, gamma_chi_subgroup
from aft.corpus import CorpusEntry, corpus_entry, octahedron, projective_plane
from aft.groups import Character, FiniteAbelianGroup, Subgroup, kernel
from aft.linear import (
    DISK,
    SPHERE,
    LinearActionModel,
    RealRepresentation,
    Summand,
    descent_to_stable,
    disk_theorem,
    generic_element,
    sphere_theorem,
    sphere_two_group_reduce,
)
from aft.pipeline import pipeline
from aft.simplicial import build_complex, homology

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "aft").glob("*.py"))


def _message(exc):
    """The message of ``raise AssertionError(message)`` with each
    formatted value written ``{}``; "" for none."""
    if not isinstance(exc, ast.Call) or not exc.args:
        return ""
    arg = exc.args[0]
    if isinstance(arg, ast.Constant):
        return str(arg.value)
    if isinstance(arg, ast.JoinedStr):
        return "".join(
            str(v.value) if isinstance(v, ast.Constant) else "{}"
            for v in arg.values
        )
    raise ValueError(f"line {exc.lineno}: message is not a string literal")


def certificate_sites(module, source):
    """{(module, function, message): [(first line, last line), ...]} for
    each ``raise AssertionError(...)``, in source order; the function is
    qualified by its class."""
    sites = defaultdict(list)

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            exc = child.exc if isinstance(child, ast.Raise) else None
            name = exc.func if isinstance(exc, ast.Call) else exc
            if isinstance(name, ast.Name) and name.id == "AssertionError":
                key = (module, ".".join(scope), _message(exc))
                sites[key].append((child.lineno, child.end_lineno))
            visit(child, scope)

    visit(ast.parse(source), [])
    return dict(sites)


def bare_asserts(source):
    """Line of each ``assert`` statement."""
    return [n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert)]


def library_sites():
    sites = {}
    for path in SOURCES:
        sites.update(certificate_sites(path.stem, path.read_text()))
    return sites


def test_site_finder_sees_keys_lines_and_asserts():
    source = (
        "class C:\n"
        "    def m(self, x):\n"
        "        if x:\n"
        "            raise AssertionError(f'{x} is {x!r}: bad')\n"
        "        raise AssertionError(\n"
        "            'two ' 'parts'\n"
        "        )\n"
        "def f():\n"
        "    assert True\n"
        "    raise ValueError('not a certificate')\n"
        "    raise AssertionError\n"
    )
    assert certificate_sites("m", source) == {
        ("m", "C.m", "{} is {}: bad"): [(4, 4)],
        ("m", "C.m", "two parts"): [(5, 7)],
        ("m", "f", ""): [(11, 11)],
    }
    assert bare_asserts(source) == [9]


def test_library_has_no_bare_assert():
    found = {path.name: bare_asserts(path.read_text()) for path in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}


# The cases.  Each builds its input first and corrupts one upstream
# result second, so that everything before the corruption runs as usual.


def _model(shape, group, *summands):
    """A model from (kind, character exponents) pairs; None for trivial."""
    return LinearActionModel(
        RealRepresentation(
            group,
            tuple(
                Summand(kind, None if exps is None else Character(group, exps))
                for kind, exps in summands
            ),
        ),
        shape,
    )


def _kernel_of(monkeypatch, exponents, only_whole=False):
    """Make the linear layer's kernels those of the character with
    ``exponents``, each computed and certified by ``kernel``: a subgroup
    that passes the kernel certificate, but not the kernel asked for."""

    def wrong(character, within=None):
        if only_whole and within is not None:
            return kernel(character, within)
        return kernel(Character(character.parent, exponents), within)

    monkeypatch.setattr(aft.linear, "kernel", wrong)


def _enumerate_only(monkeypatch, *residues):
    """Make every subgroup enumerate just ``residues``."""
    monkeypatch.setattr(Subgroup, "iter_element_residues", lambda self: iter(residues))


Z2, Z3, Z4 = (FiniteAbelianGroup([(p, [e])]) for p, e in ((2, 1), (3, 1), (2, 2)))
Z2Z2 = FiniteAbelianGroup([(2, [1, 1])])
Z3Z3 = FiniteAbelianGroup([(3, [1, 1])])


def _edge_swap():
    """Z/2 swapping the ends of an edge: not good, the edge is fixed."""
    return SimplicialAction(Z2, build_complex([(0, 1)]), [{0: 1, 1: 0}])


def _pipeline_keeps_every_power(monkeypatch):
    # Z/2 x Z/2 turns the octahedron by pi about two axes, so every element
    # fixes two vertices and acts trivially on homology, and the whole
    # group fixes none.  With n = 0, Gamma_chi is the whole group, and the
    # stability oracle sees chi 0 != 2.
    half_turns = [
        {0: 0, 1: 1, 2: 3, 3: 2, 4: 5, 5: 4},
        {0: 1, 1: 0, 2: 3, 3: 2, 4: 4, 5: 5},
    ]
    entry = CorpusEntry(
        "klein-octahedron", "action",
        action=SimplicialAction(Z2Z2, octahedron(), half_turns),
        metadata={"mu": 2},
    )
    monkeypatch.setattr(aft.pipeline, "C_p_chi", lambda p, cfg: (0, 1))
    pipeline(entry)


def _gamma_chi_loses_the_quotient_rank(monkeypatch):
    # The antipodal Z/2 acts faithfully with n = 2: [A : A^4] = 2 is at
    # most 2^(n r) = 4 for r = 1, but not for r = 0.
    entry = corpus_entry("z2-antipodal-octahedron")
    monkeypatch.setattr(Subgroup, "quotient_invariant_factors", lambda self: [])
    gamma_chi_subgroup(entry.action, entry.metadata["mu"])


def _minkowski_kernel_loses_its_members(monkeypatch):
    # Z/4 acting on H_0 = Z by the identity; without the mod-3 reduction
    # no element is in the kernel, so [A:G] = 4 > 3^1.
    monkeypatch.setattr(bounds, "_mat_mod", lambda m, q: None)
    bounds.cohomology_trivializing_subgroup(Z4, [[((1,),)]])


def _check_with(name, **changes):
    """A case checking a corpus entry with one field (``kind`` or
    ``action``) or one metadata value changed."""
    entry = corpus_entry(name)
    fields = set(CorpusEntry._fields)
    metadata = {k: v for k, v in changes.items() if k not in fields}
    entry = entry._replace(
        metadata={**entry.metadata, **metadata},
        **{k: v for k, v in changes.items() if k in fields},
    )
    return lambda monkeypatch: corpus._check_entry(entry)


def _corpus_repeats_a_model(monkeypatch):
    models = corpus._model_entries()
    monkeypatch.setattr(corpus, "_model_entries", lambda: models + models[:1])
    corpus.load_corpus.cache_clear()
    corpus.load_corpus()


def _hermite_rows(monkeypatch, change):
    """The kernel's Hermite form, changed by ``change`` (a list of row
    tuples, edited in place)."""
    real = groups.hermite_normal_form

    def changed(rows, ncols):
        out = [tuple(r) for r in real(rows, ncols)]
        change(out)
        return out

    group = FiniteAbelianGroup([(2, [2, 1])])
    chi = Character(group, (2, 0))
    monkeypatch.setattr(groups, "hermite_normal_form", changed)
    kernel(chi)


def _negate_last_pivot(rows):
    rows[-1] = tuple(-v for v in rows[-1])


def _add_last_row_to_the_first(rows):
    rows[1] = tuple(a + b for a, b in zip(rows[1], rows[-1]))


def _kernel_loses_its_values(monkeypatch):
    # Values zeroed under the row (E, 0, ..., 0) give back H itself: the
    # right shape, but the wrong index, since chi is nontrivial on H.
    real = groups.hermite_normal_form

    def without_values(rows, ncols):
        return real([(0,) + r[1:] for r in rows[:-1]] + rows[-1:], ncols)

    group = FiniteAbelianGroup([(2, [2, 1])])
    h = Subgroup(group, [group.element((1, 0))])
    monkeypatch.setattr(groups, "hermite_normal_form", without_values)
    kernel(Character(group, (2, 0)), h)


def _kernel_rows_replaced(monkeypatch, within, exponents, rows):
    """Make the kernel's Hermite form give ``rows`` as the basis of
    ker & H: rows of Hermite shape and of the right index, but another
    subgroup's.  H is built first, with the real Hermite form."""
    real = groups.hermite_normal_form

    def replaced(matrix, ncols):
        return real(matrix, ncols)[:1] + [(0,) + r for r in rows]

    monkeypatch.setattr(groups, "hermite_normal_form", replaced)
    kernel(Character(within.parent, exponents), within)


def _kernel_off_the_character(monkeypatch):
    # In Z/4 + Z/2 the kernel of (2, 0) is <(2, 0), (0, 1)>, of index 2;
    # <(1, 0), (0, 2)> has the same index, and (2, 0) is 2 at (1, 0).
    group = FiniteAbelianGroup([(2, [2, 1])])
    _kernel_rows_replaced(monkeypatch, Subgroup.whole(group), (2, 0), [(1, 0), (0, 2)])


def _kernel_outside_the_subgroup(monkeypatch):
    # In (Z/2)^3, (1, 0, 0) has the kernel <(0, 1, 0)> in H = <e_0, e_1>;
    # <(0, 0, 1)> has the same index and lies in the kernel, not in H.
    group = FiniteAbelianGroup([(2, [1, 1, 1])])
    h = Subgroup(group, [group.element((1, 0, 0)), group.element((0, 1, 0))])
    _kernel_rows_replaced(monkeypatch, h, (1, 0, 0), [(2, 0, 0), (0, 2, 0), (0, 0, 1)])


def _enumeration_leaves_the_lattice(monkeypatch):
    # In (Z/2)^2 the row solver also gives the tail (1,) to the row with
    # pivot 2 above (0, 2): the basis ((2, 1), (0, 2)) has Hermite shape,
    # but its lattice misses (2, 0), so a sixth "subgroup" of order 1.
    real = groups._row_tails

    def more(rows, i, d, q, ambient):
        extra = [(1,)] if (d, rows[1]) == (2, (0, 2)) else []
        return real(rows, i, d, q, ambient) + extra

    monkeypatch.setattr(groups, "_row_tails", more)
    groups.all_subgroups(Z2Z2)


def _enumeration_misses_a_subgroup(monkeypatch):
    # In (Z/2)^2 the row (1, 1) above the row (0, 2) is the only basis
    # with the tail (1,).  Dropping that tail drops <(1, 1)> alone, and
    # every basis left is still its own Hermite form.
    real = groups._row_tails

    def fewer(rows, i, d, q, ambient):
        return [t for t in real(rows, i, d, q, ambient) if t != (1,)]

    monkeypatch.setattr(groups, "_row_tails", fewer)
    groups.all_subgroups(Z2Z2)


def _unit_pivots_plus(monkeypatch, extra):
    """Make the matrix core report pivots the matrix does not have after
    the real ones: ``extra(rows)`` gives them from the rows left."""
    real = aft.integermat._unit_pivots

    def more(rows, cols, heap, p=None):
        yield from real(rows, cols, heap, p)
        yield from extra(rows)

    monkeypatch.setattr(aft.integermat, "_unit_pivots", more)


def _pivot_on_a_live_row(monkeypatch):
    # RP^2 leaves its Z/2, an entry 2 of d_2, to the matrix core; a pivot
    # that names the entry's row, with no column, leaves the entry on a
    # removed cell.
    _unit_pivots_plus(monkeypatch, lambda rows: [(r, -1, 1) for r in rows])
    homology(projective_plane())


def _boundary_of_every_edge_is_two_points(monkeypatch):
    # The coreduction of RP^2 hands on five loops at one vertex, d_1 = 0.
    # With a 2 on each loop instead, the loop the matrix core keeps has
    # d_1 = 2 and d_2 = 2 on it: the two do not compose to zero.
    real = aft.simplicial._coreduce

    def corrupted(complex_):
        sizes, (_, *rest) = real(complex_)
        return sizes, iter([[(0, j, 2) for j in range(sizes[1])], *rest])

    monkeypatch.setattr(aft.simplicial, "_coreduce", corrupted)
    homology(projective_plane())


def _pivot_on_a_dead_row(monkeypatch):
    # The octahedron's coreduction leaves a vertex and a 2-cell and no
    # edge.  A pivot at (0, 0) in degrees 1 and 2 removes both, and no
    # edge with them.
    _unit_pivots_plus(monkeypatch, lambda rows: [(0, 0, 1)])
    homology(octahedron())


def _descent_kernel_of_another_character(monkeypatch):
    # Z/3 x Z/3 turns the plane by (1, 0); the kernel of (0, 1) has the
    # right index but fixes nothing more.
    model = _model(DISK, Z3Z3, ("rotation", (1, 0)), ("trivial", None))
    _kernel_of(monkeypatch, (0, 1))
    descent_to_stable(model, 3, Subgroup.whole(Z3Z3))


def _generic_element_outside_the_subgroup(monkeypatch):
    model = _model(DISK, Z3Z3, ("rotation", (1, 0)), ("rotation", (0, 1)))
    h = Subgroup(Z3Z3, [Z3Z3.element((1, 0))])
    _enumerate_only(monkeypatch, (1, 1))
    generic_element(model, 4, h)


def _descent_returns_its_start(monkeypatch):
    # On (Z/4)^2 turning three planes by (1, 0), (0, 1) and (1, 1), the
    # squares form a Klein group each of whose involutions fixes one plane:
    # not stable, and no element fixes only what the group fixes.
    group = FiniteAbelianGroup([(2, [2, 2])])
    model = _model(
        DISK, group, ("rotation", (1, 0)), ("rotation", (0, 1)), ("rotation", (1, 1))
    )
    entry = CorpusEntry("klein-squares", "model", model=model, metadata={"mu": 2})
    monkeypatch.setattr(aft.pipeline, "descent_to_stable", lambda model, lam, start: (start, []))
    pipeline(entry)


# Z/3 turning one plane of R^5, and Z/8 turning one plane: the p-part fixes
# a 3-disk, so the disk theorem searches.
Z3_DISK = _model(DISK, Z3, ("rotation", (1,)), *[("trivial", None)] * 3)
Z8 = FiniteAbelianGroup([(2, [3])])
Z8_DISK = _model(DISK, Z8, ("rotation", (1,)), *[("trivial", None)] * 3)


def _averaging_sees_only_the_identity(monkeypatch):
    _enumerate_only(monkeypatch, (0,))
    disk_theorem(Z3_DISK)


def _averaging_kernel_of_another_character(monkeypatch):
    # The Klein group's three sign lines, (0, 1) twice: gamma = (0, 1) is
    # in the kernel of (1, 0), and the kernel of (0, 1) fixes one more line.
    model = _model(
        DISK, Z2Z2, ("sign", (1, 0)), ("sign", (0, 1)), ("sign", (0, 1)),
        ("sign", (1, 1)), *[("trivial", None)] * 3,
    )
    _kernel_of(monkeypatch, (0, 1))
    disk_theorem(model)


# The Klein group on S^2 by the sign lines (1, 0), (1, 0) and (0, 1).
KLEIN_SPHERE = _model(SPHERE, Z2Z2, ("sign", (1, 0)), ("sign", (1, 0)), ("sign", (0, 1)))
# (Z/2)^3 on S^2 by its three coordinate sign lines.
Z2_CUBED = FiniteAbelianGroup([(2, [1, 1, 1])])
CUBE_SPHERE = _model(
    SPHERE, Z2_CUBED, ("sign", (1, 0, 0)), ("sign", (0, 1, 0)), ("sign", (0, 0, 1))
)


def _reduction_kernel_of_another_character(monkeypatch):
    # The orientation-preserving subgroup is ker (0, 1); the kernel of
    # (1, 0) takes an involution that reverses W, leaving W^t of dim 2.
    _kernel_of(monkeypatch, (1, 0))
    sphere_two_group_reduce(KLEIN_SPHERE, Subgroup.whole(Z2Z2))


def _reduction_sees_only_the_identity(monkeypatch):
    model = _model(SPHERE, Z4, ("rotation", (1,)), ("trivial", None))
    _enumerate_only(monkeypatch, (0,))
    sphere_two_group_reduce(model, Subgroup.whole(Z4))


def _reduction_kernel_loses_everything(monkeypatch):
    # A0 is the last kernel; the trivial subgroup fixes every line, but
    # has index 8 in (Z/2)^3.
    monkeypatch.setattr(aft.linear, "kernel", lambda character, within=None: Subgroup.trivial_subgroup(character.parent))
    sphere_two_group_reduce(CUBE_SPHERE, Subgroup.whole(Z2_CUBED))


def _reduction_kernel_takes_another_involution(monkeypatch):
    # The first round leaves b = ker (1, 1, 1) and t = (0, 1, 1), so W is
    # the line (1, 0, 0).  In place of ker (1, 0, 0) & b = <(0, 1, 1)>, the
    # second kernel is <(0, 1, 0)>: it fixes W and the line (0, 0, 1) too.
    other = Subgroup(Z2_CUBED, [Z2_CUBED.element((0, 1, 0))])

    def wrong(character, within=None):
        if character.exponents == (1, 0, 0):
            return other
        return kernel(character, within)

    monkeypatch.setattr(aft.linear, "kernel", wrong)
    sphere_two_group_reduce(CUBE_SPHERE, Subgroup.whole(Z2_CUBED))


def _crt_component_lost(monkeypatch):
    monkeypatch.setattr(aft.linear, "crt_power_extract", lambda g, p: (0, g.group.identity()))
    disk_theorem(Z3_DISK)


def _assembly_join_keeps_the_first(monkeypatch):
    monkeypatch.setattr(Subgroup, "join", lambda self, other: self)
    disk_theorem(Z3_DISK)


def _assembly_join_keeps_only_the_half_turn(monkeypatch):
    # The search finds the generator as gamma and A' = Z/8.  The half turn
    # fixes the same 3-disk as gamma, but [A:<4>] = 4 does not divide
    # f(1) = 2.
    half_turn = Subgroup(Z8, [Z8.element((4,))])
    monkeypatch.setattr(Subgroup, "join", lambda self, other: half_turn)
    disk_theorem(Z8_DISK)


def _two_point_kernel_of_another_character(monkeypatch):
    # The reduction leaves ker (0, 1), fixing the line (0, 1) alone; the
    # kernel of (1, 1) moves all three lines.
    _kernel_of(monkeypatch, (1, 1), only_whole=True)
    sphere_theorem(KLEIN_SPHERE)


def _assembly_returns_the_whole_group(monkeypatch):
    # Z/6 on S^4: three sign lines and a plane turned by the 3-part.  The
    # 3-part fixes the lines, so it searches; the whole group fixes nothing.
    group = FiniteAbelianGroup([(2, [1]), (3, [1])])
    model = _model(SPHERE, group, *[("sign", (1, 0))] * 3, ("rotation", (0, 1)))
    monkeypatch.setattr(
        aft.linear, "assemble_cross_prime", lambda model, parts: (group.identity(), Subgroup.whole(group))
    )
    sphere_theorem(model)


def _lefschetz_numbers_corrupted(monkeypatch):
    # Z/4 fixing a point acts trivially on H_0 = Z, so [A:G] = 1.  With
    # every non-identity Lefschetz number corrupted, [A:G] = 4 > 3^1.
    point = build_complex([(0,)])
    entry = CorpusEntry(
        "z4-on-a-point", "action",
        action=SimplicialAction(Z4, point, [{0: 0}]),
        metadata={"mu": 1},
    )
    monkeypatch.setattr(
        aft.pipeline, "lefschetz_number", lambda action, g: 0 if any(g.residues) else 1
    )
    pipeline(entry)


def _traces_lose_their_orientation_signs(monkeypatch):
    # The corpus swap of a subdivided edge reads its root, the swap of the
    # edge itself, which is not good: the swap reverses the edge, so its
    # Hopf trace is (-1)^1 * (-1) = 1 = chi(midpoint).  Counted without the
    # sign it reads -1, and [A:G] = 2 stays within the Minkowski bound 3.
    entry = corpus_entry("z2-swap-subdivided-edge")
    monkeypatch.setattr(aft.actions, "_orientation", lambda images: 1)
    pipeline(entry)


def _a0_enumerates_only_the_identity(monkeypatch):
    # Z/8 turning a bipyramid over an octagon: A0 is the half turn, which
    # fixes the two poles, and the identity alone fixes everything.
    ring = 8
    space = build_complex(
        [(i, (i + 1) % ring, pole) for i in range(ring) for pole in (ring, ring + 1)]
    )
    turn = {i: (i + 1) % ring for i in range(ring)} | {ring: ring, ring + 1: ring + 1}
    entry = CorpusEntry(
        "z8-bipyramid", "action", action=SimplicialAction(Z8, space, [turn]), metadata={"mu": 1}
    )
    monkeypatch.setattr(Subgroup, "elements", lambda self: [self.parent.identity()])
    pipeline(entry)


def _components_miscounted(monkeypatch):
    # Both routes read one reduction; a fault in it that keeps Euler and
    # universal coefficients intact still has to match the 1-skeleton.
    monkeypatch.setattr(aft.simplicial, "_component_roots", lambda cx: [0, 1])
    homology(corpus.hexagon())


def _coreduction_adds_a_top_cell(monkeypatch):
    # A cell the coreduction invents survives the reduction as a cycle:
    # the reduction's own Euler check counts it on both sides, chi(X) not.
    real = aft.simplicial._coreduce

    def more(complex_):
        sizes, boundaries = real(complex_)
        return sizes[:-1] + [sizes[-1] + 1], boundaries

    monkeypatch.setattr(aft.simplicial, "_coreduce", more)
    homology(octahedron())


def _ranks_mod_2_read_off_over_z(monkeypatch):
    # The Smith diagonal of RP^2's d_2 is (2): rank 1 over Z, 0 over F_2.
    monkeypatch.setattr(
        aft.simplicial,
        "rank_mod_p",
        lambda entries, p: len(aft.simplicial.smith_diagonal(entries)),
    )
    homology(projective_plane(), primes=(2,))


CASES = {
    ("actions", "assert_chi_preserved", "chi not preserved by the subgroup generated by {}: {} != {}"): [
        _pipeline_keeps_every_power
    ],
    ("actions", "gamma_chi_subgroup", "index exceeds p^(n r); power subgroup broken"): [
        _gamma_chi_loses_the_quotient_rank
    ],
    ("bounds", "cohomology_trivializing_subgroup", "[A:G] = {} exceeds the Minkowski bound {}"): [
        _minkowski_kernel_loses_its_members
    ],
    ("corpus", "_check_entry", "{}: Euler characteristic mismatch"): [
        _check_with("octahedron", expected_chi=0),
        _check_with("z2-antipodal-octahedron", expected_chi=0),
        _check_with("model-z3-rotation-disk", expected_chi=0),
    ],
    ("corpus", "_check_entry", "{}: Betti mismatch {}"): [
        _check_with("octahedron", expected_betti_Z=[1, 1, 2])
    ],
    ("corpus", "_check_entry", "{}: no-odd-cohomology flag wrong"): [
        _check_with("octahedron", no_odd_cohomology=False)
    ],
    ("corpus", "_check_entry", "{}: torsion mismatch"): [
        _check_with("projective-plane-6", expected_torsion={1: [3]})
    ],
    ("corpus", "_check_entry", "{}: mod-2 Betti mismatch"): [
        _check_with("projective-plane-6", expected_betti_mod_2=[1, 0, 0])
    ],
    ("corpus", "_check_entry", "{}: corpus action is not good"): [
        _check_with("z2-swap-subdivided-edge", action=_edge_swap())
    ],
    ("corpus", "_check_entry", "{}: unknown kind {}"): [
        _check_with("octahedron", kind="polytope")
    ],
    ("corpus", "load_corpus", "duplicate corpus entry names"): [_corpus_repeats_a_model],
    ("groups", "Subgroup._hermite", "{} rows for a group of rank {}"): [
        lambda monkeypatch: _hermite_rows(monkeypatch, list.pop)
    ],
    ("groups", "_check_hermite_row", "row {} of {} has no pivot dividing {}"): [
        lambda monkeypatch: _hermite_rows(monkeypatch, _negate_last_pivot)
    ],
    ("groups", "_check_hermite_row", "row {} of {} is not 0 before its pivot and in [0, d_j) after it"): [
        lambda monkeypatch: _hermite_rows(monkeypatch, _add_last_row_to_the_first)
    ],
    ("groups", "kernel", "kernel of {} has index {} in the group, not {} * the order of its values {} mod {}"): [
        _kernel_loses_its_values
    ],
    ("groups", "kernel", "kernel of {} has the row {}, off the kernel"): [
        _kernel_off_the_character
    ],
    ("groups", "kernel", "kernel of {} has the row {}, outside {}"): [
        _kernel_outside_the_subgroup
    ],
    ("groups", "_subgroups", "subgroups found by order {} are not Birkhoff's count {} for type {}"): [
        _enumeration_leaves_the_lattice
    ],
    ("integermat", "_certify_reduction", "reduced boundary {} has entry ({}, {}) off the surviving cells"): [
        _pivot_on_a_live_row
    ],
    ("integermat", "_certify_reduction", "reduced boundaries {} and {} do not compose to zero"): [
        _boundary_of_every_edge_is_two_points
    ],
    ("integermat", "_certify_reduction", "reduction changed the Euler characteristic: {} != {}"): [
        _pivot_on_a_dead_row
    ],
    ("linear", "descent_to_stable", "fixed subspace did not grow strictly during descent"): [
        _descent_kernel_of_another_character
    ],
    ("linear", "generic_element", "generic element does not reproduce the fixed subspace"): [
        _generic_element_outside_the_subgroup
    ],
    ("linear", "generic_element", "no generic element exists; the kernel-union counting bound failed"): [
        _descent_returns_its_start
    ],
    ("linear", "_averaging_search", "averaging bound violated: min I = {} > [r/p] = {}"): [
        _averaging_sees_only_the_identity
    ],
    ("linear", "_averaging_search", "X^gamma != X^A' on the linear model"): [
        _averaging_kernel_of_another_character
    ],
    ("linear", "sphere_two_group_reduce", "current fixed sphere has odd dimension"): [
        _reduction_kernel_of_another_character
    ],
    ("linear", "sphere_two_group_reduce", "no involution-like element found in a nontrivially acting 2-group; reduction argument broken"): [
        _reduction_sees_only_the_identity
    ],
    ("linear", "sphere_two_group_reduce", "[A2:A0] = {} does not divide 2^(m+1) = {}"): [
        _reduction_kernel_loses_everything
    ],
    ("linear", "sphere_two_group_reduce", "reduced subgroup has no even-sphere fixed set"): [
        _reduction_kernel_takes_another_involution
    ],
    ("linear", "assemble_cross_prime", "CRT component does not recover gamma_p"): [
        _crt_component_lost
    ],
    ("linear", "assemble_cross_prime", "X^gamma != X^A' after assembly"): [
        _assembly_join_keeps_the_first
    ],
    ("linear", "_result", "{}: [A:A'] = {} does not divide {}"): [
        _assembly_join_keeps_only_the_half_turn
    ],
    ("linear", "sphere_theorem", "two-point branch lost the fixed line"): [
        _two_point_kernel_of_another_character
    ],
    ("linear", "sphere_theorem", "assembled subgroup has empty fixed sphere"): [
        _assembly_returns_the_whole_group
    ],
    ("pipeline", "_pipeline_action", "{}: [A:G] = {} exceeds the Minkowski bound {}"): [
        _lefschetz_numbers_corrupted
    ],
    ("pipeline", "_pipeline_action", "{}: L(g) = {} but chi(X^<g>) = {} for g = {}"): [
        _traces_lose_their_orientation_signs
    ],
    ("pipeline", "_pipeline_action", "{}: no generic element found in A0"): [
        _a0_enumerates_only_the_identity
    ],
    ("simplicial", "homology", "H_0 cross-check failed: rank {} != {} components"): [
        _components_miscounted
    ],
    ("simplicial", "homology", "Euler cross-check failed over Z: {} != {}"): [
        _coreduction_adds_a_top_cell
    ],
    ("simplicial", "homology", "universal coefficients failed over F_{} in degree {}: {} != {}"): [
        _ranks_mod_2_read_off_over_z
    ],
}

SITES = library_sites()


def test_every_site_has_a_case_and_every_case_a_site():
    assert {key: len(lines) for key, lines in SITES.items()} == {
        key: len(cases) for key, cases in CASES.items()
    }


def _pattern(message):
    return ".*".join(map(re.escape, message.split("{}")))


CASE_KEYS = [(key, i) for key, cases in CASES.items() for i in range(len(cases))]


def _case_id(value):
    if isinstance(value, tuple):
        return f"{value[0]}.{value[1]}:{value[2][:32].rstrip()}"
    return str(value)


def _fires(monkeypatch, key, number, case):
    """Require ``case`` to raise at site ``number`` of ``key``, with its message."""
    first, last = SITES[key][number]
    with pytest.raises(AssertionError) as info:
        case(monkeypatch)
    tb = info.tb
    while tb.tb_next is not None:
        tb = tb.tb_next
    raised_at = (Path(tb.tb_frame.f_code.co_filename).stem, tb.tb_lineno)
    assert raised_at[0] == key[0] and first <= raised_at[1] <= last, raised_at
    assert re.fullmatch(_pattern(key[2]), str(info.value), re.DOTALL)


@pytest.mark.parametrize("key, number", CASE_KEYS, ids=_case_id)
def test_certificate_fires(monkeypatch, key, number):
    _fires(monkeypatch, key, number, CASES[key][number])


class _Untouched:
    """A stand-in for ``monkeypatch`` that patches nothing."""

    def setattr(self, *args):
        pass


@pytest.mark.parametrize(
    "key, number",
    [(key, i) for key, i in CASE_KEYS if key[:2] != ("corpus", "_check_entry")],
    ids=_case_id,
)
def test_case_passes_without_its_corruption(key, number):
    # So the corruption, not the input, is what the site catches.  The
    # corpus metadata cases build a wrong entry instead; the real corpus
    # loads.
    CASES[key][number](_Untouched())


def test_enumeration_count_catches_a_missed_subgroup(monkeypatch):
    # Completeness: a rebuild of each enumerated basis into its Hermite
    # form cannot see a subgroup that was never enumerated; the count of
    # the subgroups of each order does.
    key = ("groups", "_subgroups", "subgroups found by order {} are not Birkhoff's count {} for type {}")
    _fires(monkeypatch, key, 0, _enumeration_misses_a_subgroup)
    monkeypatch.undo()
    _enumeration_misses_a_subgroup(_Untouched())
