"""Explicit constants: f, chain bound, C_{p,chi}, P_chi, composite bound."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chain_bound_reference
import minkowski_reference as reference
from aft.bounds import (
    BoundsConfig,
    C_lambda_factors,
    C_p_chi,
    P_chi,
    chain_bound,
    chain_bound_oracle,
    cohomology_trivializing_subgroup,
    composite_bound,
    constants_report,
    _mat_mul,
    f,
    minkowski_injectivity_check,
)
from aft.groups import FiniteAbelianGroup, Subgroup
from aft.integermat import primes_up_to


def f_accumulated(k):
    """Independent route: multiply prime by prime, factor by factor."""
    if k < 0:
        return 1
    value = 1
    for _ in range(k):
        value *= 2
    for p in primes_up_to(max(k, 2)):
        if p == 2:
            continue
        for _ in range(k // p):
            value *= p
    return value


def test_f_values():
    expected = [1, 1, 2, 4, 24, 48, 480, 2880, 40320, 80640]
    assert [f(k) for k in range(-1, 9)] == expected
    assert f(-7) == 1


def test_f_two_routes_agree():
    for k in range(-2, 31):
        assert f(k) == f_accumulated(k)


def test_f_divisibility_up_to_30():
    for k in range(31):
        assert (2 ** (k - k // 2) * math.factorial(k)) % f(k) == 0


def test_f_odd_prime_divisors_bounded():
    for k in range(1, 31):
        value = f(k)
        for p in primes_up_to(200):
            if p > 2 and value % p == 0:
                assert p <= k


def test_chain_bound_examples():
    assert chain_bound(1, 1) == 3
    assert chain_bound(2, 0) == 1
    assert chain_bound(3, 2) == 15


def test_chain_bound_matches_oracle():
    # The oracle's table over budgets also against the recursion once per
    # tuple, on every pair the chain-bound suite runs.
    for m in range(13):
        for k in range(13 - m):
            assert chain_bound(m, k) == chain_bound_oracle(m, k) == (
                chain_bound_reference.chain_bound_count(m, k)
            )


def test_chain_bound_oracle_cap():
    with pytest.raises(ValueError):
        chain_bound_oracle(10, 10)


def cfg(dim, betti, mu, torsion=(), mod_p=None):
    return BoundsConfig(
        dim=dim,
        betti_Z=tuple(betti),
        betti_mod_p={} if mod_p is None else mod_p,
        torsion_primes=frozenset(torsion),
        mu=mu,
    )


def test_C_p_chi_examples():
    sphere = cfg(2, (1, 0, 1), 1)
    assert C_p_chi(5, sphere) == (0, 1)  # 5 > 4
    point = cfg(0, (1,), 1)
    assert C_p_chi(3, point) == (0, 1)  # 3 > 2
    assert C_p_chi(2, point) == (1, 2)  # 2 <= 2 < 4
    # p = 2 with total 2: 2, 4 fail the strict inequality, 8 works.
    assert C_p_chi(2, sphere) == (2, 4)


def test_C_p_chi_trivial_above_P_chi():
    sphere = cfg(2, (1, 0, 1), 3)
    p_max = P_chi(sphere)
    for p in primes_up_to(40):
        if p >= p_max:
            assert C_p_chi(p, sphere) == (0, 1)


def C_lambda(lam, config):
    return math.prod(p ** e for p, e in C_lambda_factors(lam, config).items())


def test_P_chi_examples():
    assert P_chi(cfg(2, (1, 0, 1), 1)) == 5  # max(2, 2*2+1)
    assert P_chi(cfg(0, (1,), 1)) == 3  # max(2, 3)
    # A Z/7 in H_1: b(F_7) = (1, 1, 1, 0), and p_0 = 11 clears it.
    seven = cfg(3, (1, 0, 0, 0), 1, torsion=(7,), mod_p={7: (1, 1, 1, 0)})
    assert P_chi(seven) == 11


def test_config_refuses_a_torsion_prime_without_mod_p_betti_numbers():
    with pytest.raises(ValueError, match="missing mod-7 Betti data for a torsion prime"):
        cfg(3, (1, 0, 0, 0), 1, torsion=(7,))
    with pytest.raises(ValueError, match="missing mod-3 Betti data"):
        cfg(2, (1, 0, 0), 1, torsion=(2, 3, 5), mod_p={2: (1, 1, 1)})


def test_C_lambda_disk_example():
    # Interval: dim 1, one Betti number; lambda = 2 gives e = 3,
    # C_{2,chi} = 2, C_{3,chi} = 1, and one factor 2^3.
    interval = cfg(1, (1, 0), 1)
    assert C_lambda_factors(2, interval) == {2: 4}
    assert C_lambda(2, interval) == 16
    # lambda <= 1: the second product is empty.
    assert C_lambda(1, interval) == 2
    assert C_lambda(0, interval) == 2


def test_composite_bound_point():
    # 3^1 times C_lambda at lambda = chi * dim = 0: P_chi = 3, C_{2,chi} =
    # 2^(1 mu) since 2 <= 2 * 1 < 4, C_{3,chi} = 1, and no prime p <= 0.
    point = cfg(0, (1,), 1)
    assert composite_bound(point) == 6


def test_composite_bound_sphere_factor():
    sphere = cfg(2, (1, 0, 1), 1)
    value = composite_bound(sphere)
    assert value % 3 ** 2 == 0
    assert value == 9 * C_lambda(4, sphere)


def test_composite_bound_two_points():
    two = cfg(0, (2,), 1)
    assert composite_bound(two) % 3 ** 4 == 0


def test_composite_bound_rejects_odd_cohomology():
    circle = cfg(1, (1, 1), 1)
    with pytest.raises(ValueError):
        composite_bound(circle)
    torsion = cfg(2, (1, 0, 0), 1, torsion=(2,), mod_p={2: (1, 1, 1)})
    with pytest.raises(ValueError):
        composite_bound(torsion)


def test_composite_bound_triangulation_invariant():
    from aft.corpus import boundary_simplex, octahedron
    from aft.simplicial import homology

    configs = []
    for cx in (boundary_simplex(3), octahedron()):
        profile = homology(cx)
        configs.append(
            BoundsConfig(
                dim=cx.dimension,
                betti_Z=tuple(profile.ranks()),
                betti_mod_p={
                    p: tuple(bs) for p, bs in profile.betti_mod_p.items()
                },
                torsion_primes=frozenset(profile.torsion_primes()),
                mu=3,
            )
        )
    assert composite_bound(configs[0]) == composite_bound(configs[1])


@pytest.mark.parametrize(
    "betti, mod_p, torsion",
    [
        ((1, 0, 1), (1, 4, 1), ()),  # F_3 Euler characteristic -2, not 2
        ((1, 0, 1), (1, 0), ()),  # a degree missing
        ((1, 0, 1), (1, 0, 1, 0), ()),  # a degree too many
        ((1, 0, 0), (1, 1, 1), ()),  # torsion at a prime not declared
        ((1, 0, 1), (0, 0, 1), (3,)),  # t_0 = -1
        ((1, 0, 0), (1, 1, 0), (3,)),  # t_1 = 1 and t_2 = -1
        ((1, 0, 1), (1, 0, 2), (3,)),  # torsion in the top degree
    ],
)
def test_config_rejects_mod_p_betti_numbers_against_universal_coefficients(
    betti, mod_p, torsion
):
    with pytest.raises(ValueError):
        cfg(2, betti, 1, torsion=torsion, mod_p={3: mod_p})


def test_config_accepts_mod_p_betti_numbers_from_torsion():
    # RP^2: the Z/2 in H_1 adds one to b_1 and b_2 over F_2 only.
    rp2 = cfg(2, (1, 0, 0), 1, torsion=(2,), mod_p={2: (1, 1, 1), 3: (1, 0, 0)})
    assert rp2.betti_for(2) == (1, 1, 1)
    # Two cyclic p-summands in H_1 and one in H_2, in dimension 3.
    cfg(3, (1, 0, 0, 0), 1, torsion=(3,), mod_p={3: (1, 2, 3, 1)})


def _library_configs():
    """Every BoundsConfig the library builds: the pipeline's configs of
    the corpus entries it runs, and of 500 seeded disk and sphere models
    each, taking mu = the rank of the model's group."""
    from aft.corpus import CorpusEntry, load_corpus
    from aft.pipeline import _bounds_config_for_action, _bounds_config_for_model
    from aft.simplicial import homology
    from aft.suites import random_disk_model, random_sphere_model, split_rng

    for entry in load_corpus():
        if entry.kind == "action" and entry.metadata["no_odd_cohomology"]:
            profile = homology(entry.action.space, primes=(2, 3, 5))
            yield entry.name, _bounds_config_for_action(entry, profile)
        elif entry.kind == "model":
            yield entry.name, _bounds_config_for_model(entry)
    for i in range(500):
        for make in (random_disk_model, random_sphere_model):
            model = make(split_rng(1, i))
            entry = CorpusEntry(
                f"{make.__name__}-{i}", "model", model=model,
                metadata={"mu": model.group.rank},
            )
            yield entry.name, _bounds_config_for_model(entry)


def test_every_config_the_library_builds_can_exist():
    # One Betti number per degree 0..dim, a nonempty space and mu >= 1:
    # the rules BoundsConfig enforces hold for every input it is given.
    names = []
    for name, config in _library_configs():
        names.append(name)
        assert len(config.betti_Z) == config.dim + 1, name
        assert config.betti_Z[0] >= 1 and config.mu >= 1, name
    assert len(names) == 1010


@pytest.mark.parametrize(
    "dim, betti, mu, message",
    [
        (2, (), 1, "3 Betti numbers"),
        (2, (1, 0, 1, 0, 0, 5), 1, "3 Betti numbers"),
        (2, (1, 0), 1, "3 Betti numbers"),
        (2, (0, 0, 1), 1, "b_0"),
        (2, (1, 0, 1), 0, "mu"),
    ],
    ids=["no-betti", "too-many-betti", "too-few-betti", "empty-space", "mu-0"],
)
def test_config_rejects_invariants_no_space_has(dim, betti, mu, message):
    with pytest.raises(ValueError, match=message):
        cfg(dim, betti, mu)


def test_constants_report_shape():
    report = constants_report(cfg(2, (1, 0, 1), 1))
    data = report.to_json()
    assert data["P_chi"] == 5
    assert data["f_values"][0] == 1
    assert data["composite_bound"] == composite_bound(cfg(2, (1, 0, 1), 1))


def test_constants_report_reads_the_chain_exponent_of_C_lambda():
    # RP^2: K = sum_j max_p b_j(X; F_p) = 3 from b(F_2) = (1, 1, 1), not
    # sum b_j(Z) = 1, so e = C(2 + 3 + 1, 3) = 20 and, with C_{2,chi} = 16,
    # C_lambda = 16 * 2^20 at lambda = chi * dim = 2.
    rp2 = cfg(2, (1, 0, 0), 2, torsion=(2,), mod_p={2: (1, 1, 1)})
    data = constants_report(rp2).to_json()
    assert data["lambda_chi"] == 2
    assert data["chain_bound_e"] == chain_bound(2, 3) == 20
    assert data["C_lambda"] == C_lambda(2, rp2) == 16 * 2 ** 20
    assert data["composite_bound"] is None


def test_chain_exponent_reads_a_torsion_prime_above_lambda():
    # A Z/7 in H_1 of a space of dimension 2 with chi = 1: lambda = 2 lies
    # below 7, yet K = 3 from b(F_7) = (1, 1, 1), so e = C(6, 3) = 20, not
    # C(4, 3) = 4 from the integral Betti numbers alone.  With C_{2,chi} =
    # 2 (sum b_j(F_2) = 1) and every other C_{p,chi} = 1 up to P_chi = 11,
    # C_lambda = 2 * 2^20.
    seven = cfg(2, (1, 0, 0), 1, torsion=(7,), mod_p={7: (1, 1, 1)})
    data = constants_report(seven).to_json()
    assert (data["lambda_chi"], data["P_chi"]) == (2, 11)
    assert data["chain_bound_e"] == chain_bound(2, 3) == 20
    assert data["C_lambda"] == C_lambda(2, seven) == 2 * 2 ** 20


def signed_permutations(n):
    mats = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            mats.append(
                tuple(
                    tuple(signs[i] if perm[i] == j else 0 for j in range(n))
                    for i in range(n)
                )
            )
    return mats


def test_minkowski_injectivity():
    verdict = minkowski_injectivity_check([((1,),)])
    assert verdict.injective and verdict.size == 1
    for n in (2, 3):
        verdict = minkowski_injectivity_check(signed_permutations(n))
        assert verdict.injective
        assert verdict.size == 2 ** n * math.factorial(n)


def test_minkowski_rejects_non_closed_input():
    with pytest.raises(ValueError):
        minkowski_injectivity_check([((0, 1), (1, 0))])  # missing identity


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_minkowski_matches_all_pairs_reference(n):
    mats = signed_permutations(n)
    assert minkowski_injectivity_check(mats) == reference.minkowski_check(mats)


@st.composite
def cyclic_signed_permutation_groups(draw):
    n = draw(st.integers(1, 4))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    gen = tuple(
        tuple(signs[i] if perm[i] == j else 0 for j in range(n))
        for i in range(n)
    )
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    powers = [gen]
    while powers[-1] != identity:
        powers.append(_mat_mul(gen, powers[-1]))
    return powers


@given(cyclic_signed_permutation_groups())
@settings(max_examples=60, deadline=None)
def test_minkowski_matches_reference_on_cyclic_groups(mats):
    assert minkowski_injectivity_check(mats) == reference.minkowski_check(mats)


def outcome(check, mats):
    """A check's verdict, or the message of the ValueError it raises."""
    try:
        return check(mats)
    except ValueError as exc:
        return str(exc)


IDENTITY_2 = ((1, 0), (0, 1))
IDEMPOTENT_P = ((1, 0), (0, 0))
IDEMPOTENT_Q = ((1, 3), (0, 0))
UNIPOTENT = ((1, 1), (0, 1))
UNIPOTENT_SQUARED = _mat_mul(UNIPOTENT, UNIPOTENT)
# A * A = ((40, -16), (-4, 8)) is not in the set, but in balanced base-2^5
# digits, a width taken from the largest entry 15 alone rather than from
# 2 * 15^2, it reads as the third member: 40 = 8 + 32 carries into -16.
NARROW_WIDTH_ALIAS = [IDENTITY_2, ((-6, 4), (1, 2)), ((8, -15), (-4, 8))]


@pytest.mark.parametrize(
    "mats",
    [
        signed_permutations(3)[:-1],
        signed_permutations(2) + [((2, 0), (0, 1))],
        # Sorted, U is the only generator and U*U = U^2 stays inside; the
        # word U^3 leaves.  A check of generator pairs alone passes this.
        [UNIPOTENT, UNIPOTENT_SQUARED],
        # The stray's square has entry 49, far past the group's entry bound.
        signed_permutations(2) + [((7, 0), (0, 1))],
        NARROW_WIDTH_ALIAS,
    ],
    ids=[
        "group-minus-one",
        "group-plus-stray",
        "long-word-leaves",
        "stray-past-entry-bound",
        "narrow-width-alias",
    ],
)
def test_minkowski_closure_rejects_non_closed_sets(mats):
    with pytest.raises(ValueError, match="not closed"):
        minkowski_injectivity_check(mats)
    with pytest.raises(ValueError, match="not closed"):
        reference.minkowski_check(mats)


@pytest.mark.parametrize(
    "mats",
    [
        # Closed, and P = Q mod 3: no counterexample to Minkowski's lemma.
        [IDEMPOTENT_P, IDEMPOTENT_Q],
        [((0,),)],
        [IDENTITY_2, IDEMPOTENT_P],
    ],
    ids=["idempotent-pair", "zero-1x1", "identity-and-idempotent"],
)
def test_minkowski_rejects_closed_sets_that_are_not_groups(mats):
    with pytest.raises(ValueError, match="input set is not a group"):
        minkowski_injectivity_check(mats)
    with pytest.raises(ValueError, match="input set is not a group"):
        reference.minkowski_check(mats)


@pytest.mark.parametrize(
    "mats, message",
    [
        ([], "empty input"),
        ([((1,),), IDENTITY_2], "matrices must be square and of equal size"),
        ([((1, 0),)], "matrices must be square and of equal size"),
    ],
    ids=["empty", "mixed-sizes", "not-square"],
)
def test_minkowski_rejects_malformed_input(mats, message):
    assert outcome(minkowski_injectivity_check, mats) == message
    assert outcome(reference.minkowski_check, mats) == message


@pytest.mark.parametrize(
    "mats, kind",
    [
        ([((1.5,),)], "float"),
        ([(("-1",),), (("1",),)], "str"),
        ([((True,),)], "bool"),
        ([((1,),), ((-1.0,),)], "float"),
    ],
    ids=["float", "numeric-strings", "bool", "one-float-among-ints"],
)
def test_minkowski_rejects_entries_that_are_not_ints(mats, kind):
    # int() made 1.5 the trivial group of size 1 and "-1", "1" a group of
    # size 2; an entry is an int or the input is refused.
    message = f"matrix entries must be integers, not {kind}"
    assert outcome(minkowski_injectivity_check, mats) == message
    assert outcome(reference.minkowski_check, mats).startswith("matrix entries must be integers")
    z2 = FiniteAbelianGroup([(2, [1])])
    with pytest.raises(ValueError, match=message):
        cohomology_trivializing_subgroup(z2, [mats[-1:]])


@st.composite
def signed_permutation_matrices(draw, n):
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return tuple(
        tuple(signs[i] if perm[i] == j else 0 for j in range(n))
        for i in range(n)
    )


def upper_triangular_inverse(u):
    """Inverse of an upper-triangular integer matrix with diagonal +-1."""
    n = len(u)
    x = [[0] * n for _ in range(n)]
    for j in range(n):
        for i in reversed(range(n)):
            rest = sum(u[i][k] * x[k][j] for k in range(i + 1, n))
            x[i][j] = u[i][i] * (int(i == j) - rest)
    return tuple(map(tuple, x))


@st.composite
def conjugated_signed_permutation_groups(draw):
    """A signed-permutation group on one or two generators, conjugated by a
    random unimodular upper-triangular U: entries large and negative."""
    n = draw(st.integers(1, 3))
    gens = draw(st.lists(signed_permutation_matrices(n), min_size=1, max_size=2))
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    group, todo = {identity}, [identity]
    while todo:
        x = todo.pop()
        for y in (_mat_mul(x, g) for g in gens):
            if y not in group:
                group.add(y)
                todo.append(y)
    u = tuple(
        tuple(
            draw(st.sampled_from((1, -1))) if i == j
            else draw(st.integers(-9, 9)) if i < j
            else 0
            for j in range(n)
        )
        for i in range(n)
    )
    u_inv = upper_triangular_inverse(u)
    assert _mat_mul(u, u_inv) == identity
    return [_mat_mul(_mat_mul(u, g), u_inv) for g in sorted(group)]


@given(conjugated_signed_permutation_groups(), st.integers(0, 47))
@settings(max_examples=60, deadline=None)
def test_minkowski_matches_reference_on_conjugated_groups(mats, drop):
    verdict = minkowski_injectivity_check(mats)
    assert verdict == reference.minkowski_check(mats)
    assert verdict.injective and verdict.size == len(mats)
    # One member short, the set is empty, not closed or the trivial group.
    drop %= len(mats)
    fewer = mats[:drop] + mats[drop + 1:]
    assert outcome(minkowski_injectivity_check, fewer) == outcome(
        reference.minkowski_check, fewer
    )


def test_trivializing_subgroup_trivial_action():
    g = FiniteAbelianGroup([(2, [1, 1])])
    identity = [[((1,),), ((1,),)] for _ in range(2)]
    sub, bound = cohomology_trivializing_subgroup(g, identity)
    assert sub == Subgroup.whole(g)
    assert bound == 9


def test_trivializing_subgroup_of_the_trivial_group():
    g = FiniteAbelianGroup([])
    sub, bound = cohomology_trivializing_subgroup(g, [])
    assert sub == Subgroup.whole(g)
    assert bound == 3 ** 0


def test_trivializing_subgroup_degree_minus_one():
    g = FiniteAbelianGroup([(2, [1])])
    sub, bound = cohomology_trivializing_subgroup(g, [[((1,),), ((-1,),)]])
    assert sub.order == 1 and sub.index == 2
    assert bound == 9


def test_trivializing_subgroup_rejects_non_homomorphism():
    g = FiniteAbelianGroup([(2, [1])])
    with pytest.raises(ValueError):
        # Order 3 matrix on a Z/2 generator.
        cohomology_trivializing_subgroup(
            g, [[((0, -1), (1, -1))]]
        )


def test_no_order_three_matrix_is_trivial_mod_three():
    """Minkowski at p = 3, size <= 2: exhaustive candidate search.

    An integer matrix of multiplicative order 3 congruent to the
    identity mod 3 would contradict injectivity; none exists among all
    2x2 matrices with entries in [-4, 4].
    """

    def mat_mul(a, b):
        return tuple(
            tuple(
                sum(a[i][t] * b[t][j] for t in range(2)) for j in range(2)
            )
            for i in range(2)
        )

    identity = ((1, 0), (0, 1))
    found = []
    for entries in itertools.product(range(-4, 5), repeat=4):
        m = (entries[:2], entries[2:])
        if any((m[i][j] - identity[i][j]) % 3 for i in range(2) for j in range(2)):
            continue
        if m == identity:
            continue
        if mat_mul(mat_mul(m, m), m) == identity:
            found.append(m)
    assert not found
