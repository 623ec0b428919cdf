"""Reference values computed without the code under test.

Everything here is plain integer arithmetic from textbook formulas, so a
wrong answer from ``aft`` cannot also make the expected value wrong.
"""

from __future__ import annotations

import hashlib
import json
import math


def digest(payload, length=None):
    """SHA-256 of the canonical JSON form of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    full = hashlib.sha256(text.encode()).hexdigest()
    return full if length is None else full[:length]


def is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def f_value(k):
    """f(k) = 2^k * prod over odd primes p <= k of p^[k/p]; 1 for k < 0."""
    if k < 0:
        return 1
    value = 2 ** k
    for p in range(3, k + 1, 2):
        if is_prime(p):
            value *= p ** (k // p)
    return value


def gaussian_binomial(n, k, q):
    """Number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def elementary_subgroup_count(rank, p):
    """Subgroups of (Z/p)^rank: the sum of Gaussian binomials."""
    return sum(gaussian_binomial(rank, k, p) for k in range(rank + 1))


def _conjugate(partition):
    if not partition:
        return []
    return [sum(1 for part in partition if part > i) for i in range(partition[0])]


def _sub_partitions(lam):
    """Partitions mu with mu_i <= lam_i for every i."""
    def extend(i, cap):
        if i == len(lam):
            yield []
            return
        for part in range(min(cap, lam[i]), -1, -1):
            for rest in extend(i + 1, part):
                yield [part] + rest
    for mu in extend(0, lam[0] if lam else 0):
        yield [part for part in mu if part]


def p_group_subgroup_count(exponents, p):
    """Subgroups of Z/p^e_1 + ... + Z/p^e_r (Birkhoff's formula).

    The number of subgroups of type mu in a group of type lam is
    prod_i p^(mu'_{i+1} (lam'_i - mu'_i)) [lam'_i - mu'_{i+1}, mu'_i - mu'_{i+1}]_p
    over the conjugate partitions; summing over mu <= lam counts all.
    """
    lam = sorted(exponents, reverse=True)
    lam_c = _conjugate(lam)
    total = 0
    for mu in _sub_partitions(lam):
        mu_c = _conjugate(mu) + [0] * (len(lam_c) + 1)
        count = 1
        for i, li in enumerate(lam_c):
            count *= p ** (mu_c[i + 1] * (li - mu_c[i]))
            count *= gaussian_binomial(li - mu_c[i + 1], mu_c[i] - mu_c[i + 1], p)
        total += count
    return total


def subgroup_count(cyclic_orders):
    """Subgroups of Z/n_1 + ... + Z/n_k: product over the Sylow parts."""
    by_prime = {}
    for n in cyclic_orders:
        p = 2
        while n > 1:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                by_prime.setdefault(p, []).append(e)
            p += 1
    return math.prod(p_group_subgroup_count(es, p) for p, es in by_prime.items())


def _surjections(n, k):
    """Number of maps from an n-set onto a k-set, by inclusion-exclusion."""
    return sum((-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k + 1))


def subdivided_f_vector(f_vector, times):
    """Simplex counts per dimension after ``times`` barycentric subdivisions.

    A k-simplex of sd(K) is a chain of k + 1 faces ending at some
    j-simplex of K, that is an ordered partition of its j + 1 vertices
    into k + 1 blocks: a surjection onto k + 1 ordered labels.
    """
    f = list(f_vector)
    for _ in range(times):
        f = [
            sum(fj * _surjections(j + 1, k + 1) for j, fj in enumerate(f))
            for k in range(len(f))
        ]
    return f


def character_trivial_on(exponents, factor_orders, residues):
    """Whether the character with these exponents is 1 at this element."""
    big = math.lcm(*factor_orders) if factor_orders else 1
    return sum(a * x * (big // m) for a, x, m in zip(exponents, residues, factor_orders)) % big == 0
