"""Finite abelian groups, subgroup lattices, characters, CRT extraction."""

import copy
import itertools
import math
import pickle
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aft import groups
from aft.groups import (
    Character,
    FiniteAbelianGroup,
    OracleScaleError,
    Subgroup,
    all_subgroups,
    crt_power_extract,
    intersect,
    kernel,
    p_part,
    subgroup_counts_by_order,
    subgroups_of,
)
from aft.integermat import primes_up_to

import lattice_reference
from character_reference import FractionCharacter
from subgroup_reference import closure_elements, join_closure

SMALL_GROUPS = [
    FiniteAbelianGroup([(2, [1])]),
    FiniteAbelianGroup([(2, [2])]),
    FiniteAbelianGroup([(2, [1, 1])]),
    FiniteAbelianGroup([(3, [1])]),
    FiniteAbelianGroup([(2, [2, 1])]),
    FiniteAbelianGroup([(2, [1]), (3, [1])]),
    FiniteAbelianGroup([(2, [1, 1]), (3, [1])]),
    FiniteAbelianGroup([(3, [2])]),
]
small_groups = st.sampled_from(SMALL_GROUPS)


def test_canonical_form():
    g = FiniteAbelianGroup([(3, [1, 2]), (2, [1])])
    assert g.factor_orders == (2, 9, 3)
    assert g.order == 54
    assert g.exponent == 18
    assert FiniteAbelianGroup([]).exponent == 1
    assert g == FiniteAbelianGroup.from_cyclic_orders([6, 9])
    assert FiniteAbelianGroup.from_cyclic_orders([12]) == FiniteAbelianGroup(
        [(2, [2]), (3, [1])]
    )


def test_json_round_trip():
    g = FiniteAbelianGroup([(2, [2, 1]), (5, [1])])
    assert FiniteAbelianGroup.from_json(g.to_json()) == g


def test_one_instance_per_primary_type():
    g = FiniteAbelianGroup([(3, [1]), (2, [1, 2])])
    assert g is FiniteAbelianGroup([(2, [2, 1]), (3, [1])])
    assert g is FiniteAbelianGroup.from_cyclic_orders([4, 6])
    assert g is FiniteAbelianGroup.from_json(g.to_json())
    assert g is FiniteAbelianGroup.from_json(
        {"primary": [{"p": 3, "exponents": [1]}, {"p": 2, "exponents": [1, 2]}]}
    )
    assert copy.deepcopy(g) is g and pickle.loads(pickle.dumps(g)) is g
    # Equality and hashing stay structural, on the decomposition.
    assert hash(g) == hash(((2, (2, 1)), (3, (1,))))
    assert g != FiniteAbelianGroup([(2, [2, 1])])


@pytest.mark.parametrize("e", [1.0, True])
def test_non_int_exponents_are_refused(e):
    # 1.0 and True equal 1 and hash alike, so a group built from them
    # would share, or leave behind, the instance of Z/2.
    with pytest.raises(ValueError, match="ints"):
        FiniteAbelianGroup([(2, [e])])
    assert FiniteAbelianGroup([(2, [1])]).to_json() == {"primary": [{"p": 2, "exponents": [1]}]}


def _is_power_of(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def _same_subgroup(kept, built):
    assert kept == built
    assert (kept.index, kept.order) == (built.index, built.order)
    assert kept.basis_residues == built.basis_residues


@pytest.mark.parametrize("group", SMALL_GROUPS, ids=repr)
def test_closed_forms_match_the_hermite_form_of_their_elements(group):
    members = list(group.elements())
    for p in sorted(set(group.primes()) | {2, 3, 5}):
        part = p_part(group, p)
        _same_subgroup(part, Subgroup(group, [x for x in members if _is_power_of(x.order(), p)]))
        assert p_part(group, p) is part
    whole, trivial = Subgroup.whole(group), Subgroup.trivial_subgroup(group)
    _same_subgroup(whole, Subgroup(group, members))
    _same_subgroup(trivial, Subgroup(group, []))
    assert Subgroup.whole(group) is whole
    assert Subgroup.trivial_subgroup(group) is trivial
    # A prime outside the order has the trivial p-part, and the trivial
    # character's kernel is the whole group.
    assert p_part(group, 7) is trivial
    assert kernel(Character(group, (0,) * group.rank)) is whole


def test_element_arithmetic():
    g = FiniteAbelianGroup([(2, [2]), (3, [1])])
    x = g.element((1, 1))
    assert x.order() == 12
    assert (x * x).residues == (2, 2)
    assert (x ** 12).is_identity()
    assert (x * x ** -1).is_identity()


def test_subgroup_canonical_representation():
    g = FiniteAbelianGroup([(2, [2, 2])])
    h1 = Subgroup(g, [g.element((2, 1)), g.element((0, 2))])
    h2 = Subgroup(g, [g.element((2, 3)), g.element((0, 2))])
    assert h1 == h2
    assert h1.order * h1.index == g.order


def test_subgroup_membership_and_elements():
    g = FiniteAbelianGroup([(2, [2]), (3, [1])])
    h = Subgroup.cyclic(g.element((2, 1)))
    assert h.order == 6
    members = h.elements()
    assert len(members) == 6
    for x in members:
        assert h.contains(x)
    outside = g.element((1, 0))
    assert not h.contains(outside)


def test_crt_power_extract_on_p_elements_and_prime_to_p_elements():
    g = FiniteAbelianGroup([(2, [2]), (3, [1])])
    four, three = g.element((1, 0)), g.element((0, 1))
    assert crt_power_extract(four, 2) == (1, four)
    assert crt_power_extract(three, 2) == (0, g.identity())
    assert crt_power_extract(g.identity(), 3) == (0, g.identity())


@pytest.mark.parametrize("p", [2.0, True, 4, 1, -3])
def test_non_prime_ints_and_floats_are_refused_as_primes(p):
    with pytest.raises(ValueError, match="not prime"):
        FiniteAbelianGroup([(p, [1])])
    g = FiniteAbelianGroup([(2, [1])])
    with pytest.raises(ValueError, match="not prime"):
        p_part(g, p)
    with pytest.raises(ValueError, match="not prime"):
        crt_power_extract(g.element((1,)), p)


@given(small_groups, st.integers(0, 200))
@settings(max_examples=80, deadline=None)
def test_cyclic_subgroup_order_matches_element_order(group, pick):
    members = list(group.elements())
    x = members[pick % len(members)]
    assert Subgroup.cyclic(x).order == x.order()


@given(small_groups, st.integers(0, 200), st.integers(0, 200))
@settings(max_examples=60, deadline=None)
def test_intersect_join_galois(group, i, j):
    members = list(group.elements())
    h1 = Subgroup.cyclic(members[i % len(members)])
    h2 = Subgroup.cyclic(members[j % len(members)])
    meet = intersect(h1, h2)
    join = h1.join(h2)
    assert all(h1.contains(g) and h2.contains(g) for g in meet.basis_elements())
    assert all(join.contains(g) for g in h1.basis_elements() + h2.basis_elements())
    # |H1| |H2| = |H1 join H2| |H1 meet H2| for abelian groups.
    assert h1.order * h2.order == join.order * meet.order


def test_powers_subgroup():
    g = FiniteAbelianGroup([(2, [3])])
    whole = Subgroup.whole(g)
    assert whole.powers(2).order == 4
    assert whole.powers(4).order == 2
    assert whole.powers(8).order == 1


def test_invariant_factors():
    g = FiniteAbelianGroup([(2, [2, 2])])
    h = Subgroup(g, [g.element((2, 1)), g.element((0, 2))])
    # This subgroup has order 8; check its cyclic decomposition directly.
    orders = sorted(x.order() for x in h.elements())
    factors = h.invariant_factors()
    assert math.prod(factors) == h.order
    assert max(factors) == max(orders)
    assert Subgroup.whole(g).quotient_invariant_factors() == []
    assert Subgroup.trivial_subgroup(g).quotient_invariant_factors() == [4, 4]


def test_invariant_factors_form_a_divisibility_chain():
    g = FiniteAbelianGroup([(2, [1]), (3, [1])])
    assert Subgroup.trivial_subgroup(g).quotient_invariant_factors() == [6]
    assert Subgroup.whole(g).invariant_factors() == [6]
    g = FiniteAbelianGroup([(2, [2, 1]), (3, [1, 1]), (5, [1])])
    assert Subgroup.trivial_subgroup(g).quotient_invariant_factors() == [60, 6]
    assert Subgroup.whole(g).invariant_factors() == [60, 6]


def test_character_values_and_kernel():
    g = FiniteAbelianGroup([(2, [2]), (3, [1])])
    chi = Character(g, (1, 1))
    assert chi.order() == 12
    ker = kernel(chi)
    assert ker.index == chi.order()
    for x in g.elements():
        assert ker.contains(x) == chi.is_one_at(x)


@given(small_groups, st.integers(0, 200))
@settings(max_examples=60, deadline=None)
def test_kernel_index_equals_character_order(group, pick):
    members = list(group.elements())
    chi = Character(group, members[pick % len(members)].residues)
    assert kernel(chi).index == chi.order()


def test_restricted_order():
    # The order of chi restricted to H is [H : ker chi & H].
    g = FiniteAbelianGroup([(2, [2])])
    chi = Character(g, (1,))
    ref = FractionCharacter(g, (1,))
    h = Subgroup.cyclic(g.element((2,)))
    cases = [(h, 2), (Subgroup.whole(g), 4), (Subgroup.trivial_subgroup(g), 1)]
    for sub, order in cases:
        ker = kernel(chi, sub)
        assert ker.index // sub.index == ref.restricted_order(sub) == order
        assert (ker == sub) == ref.is_trivial_on(sub) == (order == 1)


def test_p_part():
    g = FiniteAbelianGroup([(2, [2]), (3, [1]), (5, [1])])
    assert p_part(g, 2).order == 4
    assert p_part(g, 3).order == 3
    assert p_part(g, 7).order == 1
    h = Subgroup.cyclic(g.element((2, 1, 0)))
    assert p_part(g, 2, h).order == 2
    assert p_part(g, 3, h).order == 3


def test_p_part_rejects_a_subgroup_of_another_group():
    g = FiniteAbelianGroup([(2, [1]), (3, [1])])
    other = FiniteAbelianGroup([(2, [2]), (3, [1])])
    with pytest.raises(ValueError, match="different group"):
        p_part(g, 2, Subgroup.whole(other))


def test_crt_power_extract():
    g = FiniteAbelianGroup([(2, [2]), (3, [1])])
    x = g.element((1, 1))  # order 12
    e2, comp2 = crt_power_extract(x, 2)
    e3, comp3 = crt_power_extract(x, 3)
    assert comp2.order() == 4 and comp3.order() == 3
    assert comp2 * comp3 == x
    assert (x ** e2) == comp2 and (x ** e3) == comp3
    _, comp5 = crt_power_extract(x, 5)
    assert comp5.is_identity()


@given(small_groups, st.integers(0, 200))
@settings(max_examples=60, deadline=None)
def test_crt_components_multiply_back(group, pick):
    members = list(group.elements())
    x = members[pick % len(members)]
    product = group.identity()
    for p in group.primes():
        _, comp = crt_power_extract(x, p)
        product = product * comp
    assert product == x


def test_subgroup_counts_against_classical_values():
    # Z/p^2 has 3 subgroups; Z/2 x Z/2 has 5; Z/6 has 4; Z/2 x Z/4 has 8.
    assert len(all_subgroups(FiniteAbelianGroup([(3, [2])]))) == 3
    assert len(all_subgroups(FiniteAbelianGroup([(2, [1, 1])]))) == 5
    assert len(all_subgroups(FiniteAbelianGroup([(2, [1]), (3, [1])]))) == 4
    assert len(all_subgroups(FiniteAbelianGroup([(2, [2, 1])]))) == 8


def test_enumeration_matches_naive_element_filter():
    g = FiniteAbelianGroup([(2, [2, 1])])
    for h in all_subgroups(g):
        members = {x for x in g.elements() if h.contains(x)}
        assert len(members) == h.order
        for x in members:
            for y in members:
                assert h.contains(x * y)


def test_subgroups_of_subgroup():
    g = FiniteAbelianGroup([(2, [2, 1])])
    h = Subgroup.cyclic(g.element((1, 0)))  # Z/4
    inner = subgroups_of(h)
    assert len(inner) == 3
    assert all(h.contains(g) for s in inner for g in s.basis_elements())


def test_oracle_cap():
    # Order exactly 4096 is within the cap: Z/4096 has one subgroup per
    # divisor 2^0..2^12.
    at_cap = FiniteAbelianGroup([(2, [12])])
    assert len(all_subgroups(at_cap)) == 13
    assert len(subgroups_of(Subgroup.whole(at_cap))) == 13
    g = FiniteAbelianGroup([(2, [13])])  # order 8192 > 4096
    with pytest.raises(OracleScaleError):
        subgroups_of(Subgroup.cyclic(g.element((2 ** 12,))))
    with pytest.raises(OracleScaleError):
        all_subgroups(g)


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _group_types(max_order):
    """One group of every isomorphism type of order <= max_order."""
    for n in range(1, max_order + 1):
        primes = [p for p in primes_up_to(n) if n % p == 0]
        exps = [max(e for e in range(n) if n % p ** e == 0) for p in primes]
        for parts in itertools.product(*(_partitions(e) for e in exps)):
            yield FiniteAbelianGroup([(p, list(part)) for p, part in zip(primes, parts)])


def _bases(subgroups):
    return [h.canonical_basis for h in subgroups]


GROUP_TYPES = list(_group_types(32))


def test_group_type_sweep_is_complete():
    # 55 isomorphism types of abelian groups of order <= 32, including
    # Z/4+Z/2+Z/3 and Z/9+Z/3.
    assert len(GROUP_TYPES) == len(set(GROUP_TYPES)) == 55
    assert FiniteAbelianGroup.from_cyclic_orders([4, 2, 3]) in GROUP_TYPES
    assert FiniteAbelianGroup.from_cyclic_orders([9, 3]) in GROUP_TYPES


@pytest.mark.parametrize("group", GROUP_TYPES, ids=repr)
def test_enumerators_match_join_closure(group):
    reference = join_closure(group)
    by_index = sorted(reference, key=lambda h: (h.index, h.canonical_basis))
    by_order = sorted(reference, key=lambda h: (h.order, h.canonical_basis))
    assert _bases(all_subgroups(group)) == _bases(by_index)
    assert _bases(subgroups_of(Subgroup.whole(group))) == _bases(by_order)


@pytest.mark.parametrize(
    "group",
    [
        FiniteAbelianGroup([(2, [2, 1])]),
        FiniteAbelianGroup([(2, [1, 1, 1])]),
        FiniteAbelianGroup([(2, [3, 1])]),
        FiniteAbelianGroup([(2, [2, 1]), (3, [1])]),
        FiniteAbelianGroup([(3, [2, 1])]),
    ],
    ids=repr,
)
def test_subgroups_of_matches_join_closure(group):
    # Every subgroup as the ambient; those of the last three have pivots
    # other than 1 and m_i, whose rows the solver's ambient congruences
    # constrain.
    for h in all_subgroups(group):
        reference = sorted(
            join_closure(group, within=h), key=lambda s: (s.order, s.canonical_basis)
        )
        assert _bases(subgroups_of(h)) == _bases(reference)


def _checked_row_tails(monkeypatch):
    """Make every row the enumerator places require the solver's tails to
    be the box filter's; returns the list of (i, d) pairs checked."""
    real, checked = groups._row_tails, []

    def row_tails(rows, i, d, q, ambient):
        tails = real(rows, i, d, q, ambient)
        assert tails == lattice_reference.row_tails(rows, i, d, q, ambient), (rows, i, d)
        checked.append((i, d))
        return tails

    monkeypatch.setattr(groups, "_row_tails", row_tails)
    return checked


@pytest.mark.parametrize("group", GROUP_TYPES, ids=repr)
def test_row_tails_match_the_box_filter(group, monkeypatch):
    # Under the whole group, and under up to 20 subgroups drawn with a
    # seed fixed by the group type.
    subgroups = all_subgroups(group)
    checked = _checked_row_tails(monkeypatch)
    assert _bases(all_subgroups(group)) == _bases(subgroups)
    assert len(checked) >= group.rank
    rng = random.Random(repr(group))
    for h in rng.sample(subgroups, min(20, len(subgroups))):
        before = len(checked)
        subgroups_of(h)
        assert len(checked) > before or group.rank == 0


def _gaussian_binomial(n, k, q):
    num = math.prod(q ** (n - i) - 1 for i in range(k))
    den = math.prod(q ** (i + 1) - 1 for i in range(k))
    return num // den


# The subgroup-lattice benchmark's ladder, then groups beyond GROUP_TYPES
# (on which test_enumerators_match_join_closure pins the order): mixed
# primes, whose Sylow blocks share one numeral, the bases R = 17 and R = 26,
# where an entry takes two decimal digits, and rank 0.
BEYOND_THE_SWEEP = [
    FiniteAbelianGroup.from_cyclic_orders(orders)
    for orders in (
        *([2] * k for k in range(1, 7)), [4, 4, 4], [8, 4, 2], [3, 3, 3],
        [4, 2, 3, 3], [8, 2, 9, 5], [16, 8], [25, 5], [],
    )
]


@pytest.mark.parametrize("group", BEYOND_THE_SWEEP, ids=repr)
def test_enumerators_sort_as_the_basis_tuples_do(group):
    # Under the whole group, and under up to 20 subgroups drawn with a
    # seed fixed by the group type.
    subgroups = all_subgroups(group)
    assert _bases(subgroups) == _bases(
        sorted(subgroups, key=lambda h: (h.index, h.canonical_basis))
    )
    rng = random.Random(repr(group))
    for h in [Subgroup.whole(group)] + rng.sample(subgroups, min(20, len(subgroups))):
        inner = subgroups_of(h)
        assert _bases(inner) == _bases(
            sorted(inner, key=lambda s: (s.order, s.canonical_basis))
        )


def test_every_placed_row_is_checked_once(monkeypatch):
    # _check_hermite_row runs on each row that the enumeration places, one
    # per tail the row solver returns, and on no other.
    group = FiniteAbelianGroup.from_cyclic_orders([4, 2, 2, 3])
    real_tails, real_check = groups._row_tails, groups._check_hermite_row
    solved, checked = [], []

    def row_tails(rows, i, d, q, ambient):
        tails = real_tails(rows, i, d, q, ambient)
        solved.extend((i, (0,) * i + (d,) + tail) for tail in tails)
        return tails

    def check(basis, i, m):
        checked.append((i, basis[i]))
        return real_check(basis, i, m)

    monkeypatch.setattr(groups, "_row_tails", row_tails)
    monkeypatch.setattr(groups, "_check_hermite_row", check)
    subgroups = all_subgroups(group)
    assert Counter(checked) == Counter(solved)
    assert len(subgroups) == len([i for i, _ in checked if i == 0])


@pytest.mark.parametrize("p, rank, count", [(2, 6, 2825), (3, 4, 212)])
def test_elementary_subgroup_counts_are_gaussian_sums(p, rank, count):
    assert sum(_gaussian_binomial(rank, k, p) for k in range(rank + 1)) == count
    assert len(all_subgroups(FiniteAbelianGroup([(p, [1] * rank)]))) == count
    assert subgroup_counts_by_order([(p, [1] * rank)]) == {
        p ** k: _gaussian_binomial(rank, k, p) for k in range(rank + 1)
    }


def _orders(subgroups):
    return Counter(h.order for h in subgroups)


@pytest.mark.parametrize("group", GROUP_TYPES, ids=repr)
def test_birkhoff_counts_match_join_closure(group):
    # The type read off the group or off the Smith form of its basis.
    histogram = _orders(join_closure(group))
    assert subgroup_counts_by_order(group.primary_decomposition) == histogram
    assert subgroup_counts_by_order(Subgroup.whole(group).primary_type()) == histogram


def test_birkhoff_counts_of_a_mixed_type_multiply_over_sylow_parts():
    # Z/12 + Z/6 + Z/2 = (Z/4 + Z/2 + Z/2) + (Z/3 + Z/3), of order 144.
    counts = subgroup_counts_by_order([(2, [2, 1, 1]), (3, [1, 1])])
    two, three = subgroup_counts_by_order([(2, [2, 1, 1])]), subgroup_counts_by_order([(3, [1, 1])])
    assert three == {1: 1, 3: 4, 9: 1}
    assert counts == {a * b: x * y for a, x in two.items() for b, y in three.items()}
    group = FiniteAbelianGroup.from_cyclic_orders([12, 6, 2])
    assert counts == _orders(join_closure(group)) == _orders(all_subgroups(group))
    assert sum(counts.values()) == 162


def _check_characters_against_fractions(group, exponent_lists, subgroup, elements):
    chars = [Character(group, e) for e in exponent_lists]
    refs = [FractionCharacter(group, e) for e in exponent_lists]
    for chi, ref in zip(chars, refs):
        assert chi.exponents == ref.exponents
        for x in elements:
            assert chi.rotation(x) == ref.rotation(x)
            assert chi.value(x.residues) == ref.rotation(x) * group.exponent
            assert chi.is_one_at(x) == ref.is_one_at(x)
        ker = kernel(chi, subgroup)
        assert (ker == subgroup) == ref.is_trivial_on(subgroup)
        assert ker.index // subgroup.index == ref.restricted_order(subgroup)


@st.composite
def groups_up_to_order(draw, max_order=216):
    primes = draw(st.lists(st.sampled_from([2, 3, 5]), unique=True, max_size=3))
    decomposition = [
        (p, draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
        for p in primes
    ]
    group = FiniteAbelianGroup(decomposition)
    assume(group.order <= max_order)
    return group


def _residues(group):
    return st.tuples(*(st.integers(-60, 60) for _ in range(group.rank)))


@st.composite
def subgroups_with_generators(draw, group):
    gens = draw(st.lists(_residues(group), max_size=3))
    return Subgroup(group, [group.element(r) for r in gens])


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_characters_match_fraction_reference(data):
    group = data.draw(groups_up_to_order())
    subgroup = data.draw(subgroups_with_generators(group))
    exponent_lists = data.draw(st.lists(_residues(group), min_size=1, max_size=5))
    picks = data.draw(st.lists(_residues(group), max_size=8))
    elements = [group.element(r) for r in picks]
    _check_characters_against_fractions(group, exponent_lists, subgroup, elements)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_elements_match_closure_reference(data):
    group = data.draw(groups_up_to_order())
    subgroup = data.draw(subgroups_with_generators(group))
    reference = closure_elements(subgroup)
    assert subgroup.elements() == reference
    assert list(subgroup.iter_element_residues()) == [x.residues for x in reference]
    assert len(reference) == subgroup.order
    assert subgroup.basis_elements() == [
        group.element(r) for r in subgroup.basis_residues
    ]


@pytest.mark.parametrize("group", GROUP_TYPES, ids=repr)
def test_characters_and_elements_match_references_on_group_types(group):
    members = list(group.elements())
    every_exponent = [x.residues for x in members]
    for h in all_subgroups(group):
        reference = closure_elements(h)
        assert h.elements() == reference
        assert list(h.iter_element_residues()) == [x.residues for x in reference]
        # Values at every element are compared once, on the whole group.
        elements = members if h.index == 1 else []
        _check_characters_against_fractions(group, every_exponent, h, elements)


def test_element_walk_is_lazy():
    # (Z/2)^40 has 2^40 elements, a list no machine builds: the walk hands
    # out the three least tuples without it.
    group = FiniteAbelianGroup([(2, [1] * 40)])
    first = list(itertools.islice(Subgroup.whole(group).iter_element_residues(), 3))
    zero = (0,) * 40
    assert first == [zero, zero[:39] + (1,), zero[:38] + (1, 0)]
    # A walk that shifts each coordinate: <(1, 1)> + <(0, 2)> in Z/4 + Z/4.
    group = FiniteAbelianGroup([(2, [2, 2])])
    h = Subgroup(group, [group.element((1, 1)), group.element((0, 2))])
    assert list(itertools.islice(h.iter_element_residues(), 5)) == [
        (0, 0), (0, 2), (1, 1), (1, 3), (2, 0)
    ]


def _p_power_residues(h, p):
    """Element oracle: the residues of the elements of h of p-power order."""
    out = []
    for r in h.iter_element_residues():
        n = h.parent.element(r).order()
        while n % p == 0:
            n //= p
        if n == 1:
            out.append(r)
    return out


def _check_meet(h1, h2):
    """intersect against the parent routine and the element sets."""
    meet = intersect(h1, h2)
    assert meet == lattice_reference.intersect(h1, h2)
    assert set(meet.iter_element_residues()) == set(h1.iter_element_residues()) & set(
        h2.iter_element_residues()
    )


def _check_p_parts(group, h):
    """p_part against the parent routine and the elements of p-power order."""
    for p in sorted(set(group.primes()) | {2, 3}):
        part = p_part(group, p, h)
        assert part == lattice_reference.p_part(group, p, h)
        assert list(part.iter_element_residues()) == _p_power_residues(h, p)


SMALL_TYPES = [g for g in GROUP_TYPES if g.order <= 16]


@pytest.mark.parametrize("group", SMALL_TYPES, ids=repr)
def test_lattice_algebra_matches_references_on_all_subgroup_pairs(group):
    subgroups = all_subgroups(group)
    for p in sorted(set(group.primes()) | {2, 3}):
        assert p_part(group, p) == lattice_reference.p_part(group, p)
    for h in subgroups:
        _check_p_parts(group, h)
    for h1, h2 in itertools.product(subgroups, repeat=2):
        _check_meet(h1, h2)


@pytest.mark.parametrize("group", GROUP_TYPES, ids=repr)
def test_intersect_with_the_whole_group_is_the_other_argument(group):
    whole = Subgroup.whole(group)
    for h in all_subgroups(group):
        # The first whole-group argument gives way to the other one.
        assert intersect(whole, h) is h
        assert intersect(h, whole) is (whole if h.index == 1 else h)
        assert h == lattice_reference.intersect(whole, h)
        assert h == lattice_reference.intersect(h, whole)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_lattice_algebra_matches_references_on_random_groups(data):
    group = data.draw(groups_up_to_order())
    h1 = data.draw(subgroups_with_generators(group))
    h2 = data.draw(subgroups_with_generators(group))
    _check_meet(h1, h2)
    _check_p_parts(group, h1)
    _check_p_parts(group, h2)


def _reference_kernel(chi):
    """Kernel through the parent kernel routine and a Hermite form of its own."""
    group = chi.parent
    k = group.rank
    if k == 0:
        return Subgroup(group, [])
    row = list(chi.weights) + [group.exponent]
    basis = lattice_reference.kernel_basis([row], k + 1)
    return Subgroup.from_rows(group, [v[:k] for v in basis])


@pytest.mark.parametrize("group", SMALL_TYPES, ids=repr)
def test_kernel_matches_reference_and_is_one_at(group):
    members = list(group.elements())
    for x in members:
        chi = Character(group, x.residues)
        ker = kernel(chi)
        assert list(ker.iter_element_residues()) == [
            y.residues for y in members if chi.is_one_at(y)
        ]
        assert ker == _reference_kernel(chi)


def _check_kernel_within(chi, h, members):
    """kernel(chi, h) against the parent routines and against the elements
    of h, listed by closure, at which chi is 1."""
    ker = kernel(chi, h)
    assert ker == lattice_reference.intersect(_reference_kernel(chi), h)
    assert list(ker.iter_element_residues()) == [
        x.residues for x in members if chi.is_one_at(x)
    ]


def _sample_characters(group):
    """Characters at a fixed stride through the elements, and the last one."""
    members = list(group.elements())
    picks = members[:: max(1, len(members) // 5)] + members[-1:]
    return [Character(group, x.residues) for x in picks]


@pytest.mark.parametrize("group", GROUP_TYPES, ids=repr)
def test_kernel_within_matches_references_on_group_types(group):
    chars = _sample_characters(group)
    for chi in chars:
        assert kernel(chi) == _reference_kernel(chi)
        assert kernel(chi, Subgroup.whole(group)) == kernel(chi)
    for h in all_subgroups(group):
        members = closure_elements(h)
        for chi in chars:
            _check_kernel_within(chi, h, members)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_kernel_within_matches_references_on_random_groups(data):
    group = data.draw(groups_up_to_order(max_order=512))
    h = data.draw(subgroups_with_generators(group))
    members = closure_elements(h)
    for exponents in data.draw(st.lists(_residues(group), min_size=1, max_size=3)):
        chi = Character(group, exponents)
        assert kernel(chi) == _reference_kernel(chi)
        _check_kernel_within(chi, h, members)


def test_kernel_within_rejects_another_group():
    z2, z4 = FiniteAbelianGroup([(2, [1])]), FiniteAbelianGroup([(2, [2])])
    with pytest.raises(ValueError):
        kernel(Character(z2, (1,)), Subgroup.whole(z4))


def _check_known_hermite(h, reference):
    """A subgroup built on its known Hermite basis, against a second route.

    ``==`` compares bases only, so the index and order are compared too,
    and the basis must be a tuple of tuples, as the Hermite route gives.
    """
    rebuilt = Subgroup.from_rows(h.parent, h.canonical_basis)
    for other in (rebuilt, reference):
        assert h.canonical_basis == tuple(map(tuple, other.canonical_basis))
        assert (h.index, h.order) == (other.index, other.order)
    assert type(h.canonical_basis) is tuple
    assert all(type(row) is tuple for row in h.canonical_basis)


def _check_known_hermite_constructors(group, subgroups, exponent_lists):
    k = group.rank
    units = [[int(i == j) for j in range(k)] for i in range(k)]
    _check_known_hermite(Subgroup.whole(group), Subgroup.from_rows(group, units))
    _check_known_hermite(Subgroup.trivial_subgroup(group), Subgroup(group, []))
    primes = sorted(set(group.primes()) | {2, 3})
    for p in primes:
        _check_known_hermite(p_part(group, p), lattice_reference.p_part(group, p))
    kernels = []
    for exponents in exponent_lists:
        chi = Character(group, exponents)
        kernels.append(kernel(chi))
        _check_known_hermite(kernels[-1], _reference_kernel(chi))
    for i, h in enumerate(subgroups):
        for p in primes:
            _check_known_hermite(
                p_part(group, p, h), lattice_reference.p_part(group, p, h)
            )
        for other in (subgroups[i - 1], kernels[i % len(kernels)]):
            _check_known_hermite(
                intersect(h, other), lattice_reference.intersect(h, other)
            )


@pytest.mark.parametrize("group", GROUP_TYPES, ids=repr)
def test_known_hermite_bases_match_references_on_group_types(group):
    # Every subgroup meets its predecessor in (index, basis) order and one
    # character kernel; every character's kernel is checked.
    _check_known_hermite_constructors(
        group, all_subgroups(group), [x.residues for x in group.elements()]
    )


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_known_hermite_bases_match_references_on_random_groups(data):
    group = data.draw(groups_up_to_order(max_order=512))
    subgroups = data.draw(
        st.lists(subgroups_with_generators(group), min_size=1, max_size=3)
    )
    exponent_lists = data.draw(st.lists(_residues(group), min_size=1, max_size=3))
    _check_known_hermite_constructors(group, subgroups, exponent_lists)


@pytest.mark.parametrize(
    "basis",
    [
        ((1, 0), (1, 2)),
        ((3, 0), (0, 2)),
        ((1, 2), (0, 2)),
        ((1, -1), (0, 2)),
        ((1, 0),),
        ((1, 0), (0, 2, 0)),
        ((-1, 0), (0, 2)),
        ((0, 0), (0, 2)),
    ],
    ids=[
        "below-diagonal", "pivot-not-dividing", "above-pivot", "negative",
        "short", "long-row", "negative-pivot", "zero-pivot",
    ],
)
def test_known_hermite_basis_shape_is_checked(basis):
    group = FiniteAbelianGroup([(2, [2, 1])])
    assert Subgroup._hermite(group, ((1, 1), (0, 2))) == Subgroup.from_rows(
        group, [(1, 1)]
    )
    with pytest.raises(AssertionError):
        Subgroup._hermite(group, basis)
