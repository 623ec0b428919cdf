"""The unreduced homology route ``aft.simplicial.homology`` used to run, kept as a reference.

``homology`` here eliminates every full boundary matrix once over Z and
once per prime, with no chain-level reduction in front, and splits the
torsion with its own trial division (``prime_power_split``).  It builds
each boundary matrix itself (``boundary_matrix``), as a dict keyed by
(row, col), so it shares no assembly with ``aft.simplicial``.
"""

from __future__ import annotations

from aft.integermat import is_prime, rank_mod_p, smith_diagonal
from aft.simplicial import DEFAULT_PRIMES, HomologyProfile


def prime_power_split(n):
    """Primary decomposition of ``n`` as a sorted list of prime powers."""
    parts = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            parts.append(q)
        p += 1
    if n > 1:
        parts.append(n)
    return sorted(parts)


def boundary_matrix(complex_, dim):
    """d_dim as a dict (row, col) -> sign, column by column.

    Column j is the j-th dim-simplex s, and its entries are inserted in
    the order of the facets s without s[i], for i = 0..dim, with sign
    (-1)^i.
    """
    position = {s: i for i, s in enumerate(complex_.simplices(dim - 1))}
    matrix = {}
    for j, s in enumerate(complex_.simplices(dim)):
        for i in range(len(s)):
            facet = tuple(v for k, v in enumerate(s) if k != i)
            matrix[(position[facet], j)] = -1 if i % 2 else 1
    return matrix


def as_dict(triples):
    """(row, col, entry) triples as a dict; each (row, col) at most once."""
    matrix = {(r, c): v for r, c, v in triples}
    assert len(matrix) == len(triples), "a (row, col) repeats"
    return matrix


def homology(complex_, primes=DEFAULT_PRIMES):
    """Exact homology profile; raises if internal cross-checks fail.

    Raises ValueError unless every entry of ``primes`` is prime.
    """
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    if complex_.dimension < 0:
        return HomologyProfile((), {p: [] for p in primes}, 0)
    top = complex_.dimension
    # Smith diagonals of all boundary maps (deg 1 .. top).
    diagonals = {0: []}
    ranks_fp = {p: {0: 0} for p in primes}
    sizes = {d: len(complex_.simplices(d)) for d in range(top + 1)}
    for d in range(1, top + 1):
        entries = boundary_matrix(complex_, d)
        diagonals[d] = smith_diagonal(entries)
        for p in primes:
            ranks_fp[p][d] = rank_mod_p(entries, p)
    diagonals[top + 1] = []
    for p in primes:
        ranks_fp[p][top + 1] = 0

    betti_z = []
    for d in range(top + 1):
        rank = sizes[d] - len(diagonals[d]) - len(diagonals[d + 1])
        torsion = []
        for v in diagonals[d + 1]:
            if v > 1:
                torsion.extend(prime_power_split(v))
        betti_z.append((rank, tuple(sorted(torsion))))

    betti_p = {}
    for p in primes:
        betti_p[p] = [
            sizes[d] - ranks_fp[p][d] - ranks_fp[p][d + 1]
            for d in range(top + 1)
        ]

    euler = complex_.euler_characteristic()
    alt_z = sum((-1) ** d * r for d, (r, _) in enumerate(betti_z))
    if alt_z != euler:
        raise AssertionError(
            f"Euler cross-check failed over Z: {alt_z} != {euler}"
        )
    for p in primes:
        alt_p = sum((-1) ** d * b for d, b in enumerate(betti_p[p]))
        if alt_p != euler:
            raise AssertionError(
                f"Euler cross-check failed over F_{p}: {alt_p} != {euler}"
            )
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
