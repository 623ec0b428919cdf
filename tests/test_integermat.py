"""Exact linear algebra: Hermite form, kernels, Smith diagonals."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elimination_reference as reference
import homology_reference
import lattice_reference
from aft.corpus import boundary_simplex, octahedron, projective_plane
from aft.groups import FiniteAbelianGroup
from aft.integermat import (
    factorize,
    hermite_normal_form,
    is_prime,
    kernel_basis,
    primes_up_to,
    rank_mod_p,
    smith_diagonal,
)
from aft.simplicial import barycentric_subdivision, boundary_entries


def rank_over_q(rows, ncols):
    """Independent rational-elimination rank oracle."""
    mat = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                factor = mat[i][col] / mat[rank][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


small_matrix = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=1,
        max_size=4,
    )
)


def test_hnf_known_lattice():
    basis = hermite_normal_form([[2, 1], [0, 2]], 2)
    assert basis == [(2, 1), (0, 2)]
    # The same lattice from messier generators.
    assert hermite_normal_form([[2, 3], [4, 4], [0, 2]], 2) == basis


def test_hnf_pivots_positive_and_reduced():
    basis = hermite_normal_form([[-3, 7], [0, -5]], 2)
    for i, row in enumerate(basis):
        assert row[i] > 0
        for j in range(i):
            assert 0 <= basis[j][i] < row[i]


@given(small_matrix)
@settings(max_examples=100, deadline=None)
def test_hnf_canonical_under_row_shuffle(rows):
    ncols = len(rows[0])
    forward = hermite_normal_form(rows, ncols)
    assert hermite_normal_form(list(reversed(rows)), ncols) == forward
    doubled = rows + [[2 * v for v in rows[0]]]
    assert hermite_normal_form(doubled, ncols) == forward


@given(small_matrix)
@settings(max_examples=100, deadline=None)
def test_kernel_annihilates_and_complements_rank(rows):
    ncols = len(rows[0])
    kernel = kernel_basis(rows, ncols)
    for v in kernel:
        assert all(
            sum(r[j] * v[j] for j in range(ncols)) == 0 for r in rows
        )
    assert len(kernel) == ncols - rank_over_q(rows, ncols)


def _in_row_lattice(vector, echelon):
    """Whether ``vector`` reduces to zero against the echelon rows."""
    v = list(vector)
    for row in echelon:
        c = next(j for j, a in enumerate(row) if a)
        q, r = divmod(v[c], row[c])
        if r:
            return False
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


# Entries in -3..3, so that many kernels hold short vectors.
tiny_matrix = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        min_size=1,
        max_size=3,
    )
)


@given(tiny_matrix)
@settings(max_examples=100, deadline=None)
def test_kernel_basis_spans_every_short_kernel_vector(rows):
    ncols = len(rows[0])
    echelon = hermite_normal_form(kernel_basis(rows, ncols), ncols)
    assert echelon == hermite_normal_form(
        lattice_reference.kernel_basis(rows, ncols), ncols
    )
    for v in itertools.product(range(-2, 3), repeat=ncols):
        if not any(sum(a * b for a, b in zip(r, v)) for r in rows):
            assert _in_row_lattice(v, echelon)


@given(small_matrix)
@settings(max_examples=100, deadline=None)
def test_smith_rank_matches_rational_rank(rows):
    ncols = len(rows[0])
    entries = {
        (i, j): v for i, r in enumerate(rows) for j, v in enumerate(r) if v
    }
    diag = smith_diagonal(entries)
    assert len(diag) == rank_over_q(rows, ncols)
    assert all(d > 0 for d in diag)


@given(small_matrix, st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=100, deadline=None)
def test_rank_mod_p_at_most_rational_rank(rows, p):
    ncols = len(rows[0])
    entries = {
        (i, j): v for i, r in enumerate(rows) for j, v in enumerate(r) if v
    }
    assert rank_mod_p(entries, p) <= rank_over_q(rows, ncols)


# Entries in -3..3; half the matrices have no +-1 entry at all, so that
# the Euclid fallback runs instead of the unit pivots.
sparse_matrix = st.tuples(st.integers(1, 6), st.integers(1, 6), st.booleans()).flatmap(
    lambda t: st.dictionaries(
        st.tuples(st.integers(0, t[0] - 1), st.integers(0, t[1] - 1)),
        st.sampled_from((-3, -2, 0, 2, 3) if t[2] else range(-3, 4)),
    )
)


def assert_matches_reference(entries, primes):
    def prime_powers(diagonal):
        return sorted(p**e for d in diagonal for p, e in factorize(d))

    diagonal = smith_diagonal(entries)
    expected = reference.smith_diagonal(entries)
    assert len(diagonal) == len(expected)
    assert prime_powers(diagonal) == prime_powers(expected)
    for p in primes:
        assert rank_mod_p(entries, p) == reference.rank_mod_p(entries, p)


@given(sparse_matrix)
@settings(max_examples=300, deadline=None)
def test_elimination_matches_reference_on_random_matrices(entries):
    assert_matches_reference(entries, primes=(2, 3, 5, 7))


@pytest.mark.parametrize(
    "cx",
    [octahedron(), projective_plane(), boundary_simplex(4)],
    ids=["octahedron", "projective_plane", "boundary_simplex_4"],
)
def test_elimination_matches_reference_on_boundary_matrices(cx):
    # sd^0..sd^2; the reference rank mod p is quadratic, so one prime here.
    for level in range(3):
        for d in range(1, cx.dimension + 1):
            entries = homology_reference.as_dict(boundary_entries(cx, d))
            assert_matches_reference(entries, primes=(2,))
        if level < 2:
            cx = barycentric_subdivision(cx)


@pytest.mark.parametrize(
    "entries, p",
    [
        ({(0, 0): 3, (1, 1): 1}, 9),
        ({(0, 0): 2, (1, 1): 1}, 4),
        ({(0, 0): 1}, 1),
        ({(0, 0): 1}, 0),
        ({(0, 0): 1}, -3),
    ],
)
def test_rank_mod_p_rejects_a_modulus_that_is_not_prime(entries, p):
    with pytest.raises(ValueError, match="is not prime"):
        rank_mod_p(entries, p)


def test_smith_torsion_of_known_matrix():
    # Z^2 --(diag 2, 6)--> Z^2 has cokernel Z/2 + Z/6.
    entries = {(0, 0): 2, (1, 1): 6}
    assert smith_diagonal(entries) == [2, 6]
    # A non-diagonal presentation of Z/2: [[1, 1], [1, -1]].
    entries = {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1}
    assert smith_diagonal(entries) == [1, 2]


def test_factorize():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(7) == [(7, 1)]
    for n in (0, -4):
        with pytest.raises(ValueError):
            factorize(n)


def test_factorize_matches_the_helpers_it_replaced():
    # The torsion split homology used, and trial-division primality.
    for n in range(1, 3000):
        assert sorted(p**e for p, e in factorize(n)) == (
            homology_reference.prime_power_split(n)
        )
        assert is_prime(n) == (n > 1 and all(n % k for k in range(2, n)))
    assert not is_prime(0) and not is_prime(-7) and not is_prime(True)
    group = FiniteAbelianGroup.from_cyclic_orders([12, 1, 18, 7])
    assert group.primary_decomposition == ((2, (2, 1)), (3, (2, 1)), (7, (1,)))


def test_sieve_matches_trial_division():
    # primes_up_to sieves; is_prime factorizes, by trial division.
    trial = [p for p in range(2000) if is_prime(p)]
    for n in range(-2, 2000):
        assert primes_up_to(n) == [p for p in trial if p <= n]
