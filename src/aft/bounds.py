"""Explicit constants and combinatorial lemmas.

All quantities are exact arbitrary-precision integers: the arithmetic
function f(k), the chain bound C(m+k+1, m+1), the per-prime constants
C_{p,chi}, the prime threshold P_chi, the stability constant C_lambda,
the composite index bound 3^b * C_{lambda_chi}, and the Minkowski mod-3
injectivity check for finite integer matrix groups.  C_lambda is a
product of prime powers, p^(n mu) for each p <= P_chi and lambda^e once
for each prime <= lambda, so it and the composite bound, with 3^b, come
as exponent maps {p: e}, as f(k) does: exact and short where the integer
has more decimal digits than ``str`` will write, which the map often
shows before the integer is built (``printable``).  The exponent n_p is
read off ``C_p_chi`` alone, and the chain exponent e off the Betti
numbers that ``BoundsConfig`` holds: the integral ones and the mod-p
ones it is given, which it requires for every torsion prime.

The Minkowski check first certifies that its input is a group: closed
under product, tested by multiplying each member only by a generating
set, and every generator with a left inverse in the input, so that all
members are invertible.  It multiplies matrices as integers: an n x n
matrix whose entries are at most B in absolute value packs into one
integer with balanced digits of w = (n * B^2).bit_length() + 1 bits, a
width no entry of a product of two members can overflow, so codes are
equal exactly when the matrices are, and a product is one C-level sum of
n^2 terms.
"""

from __future__ import annotations

import operator
import sys
from bisect import bisect_right
from collections import namedtuple
from itertools import accumulate, chain, starmap
from math import comb, prod

from .groups import Subgroup, _json_field
from .integermat import check_prime, factorize, primes_up_to


def f(k):
    """f(k) = 2^k * prod over odd primes p of p^[k/p]; 1 for k < 0."""
    return _product(f_factors(k))


def f_factors(k, primes=None):
    """f(k) as an exponent map {p: e}, p ascending; {} for k <= 0.

    ``primes`` lists the primes in increasing order up to at least k, as
    ``primes_up_to`` does, so that a table of f sieves once for all its
    rows; by default it is ``primes_up_to(k)``.
    """
    if primes is None:
        primes = primes_up_to(k)
    factors = {2: k} if k > 0 else {}
    factors.update((p, k // p) for p in primes[1:bisect_right(primes, k)])
    return factors


def chain_bound(m, k):
    """Length bound C(m+k+1, m+1) for strict chains of fixed-set inclusions."""
    if m < 0 or k < 0:
        raise ValueError("m and k must be nonnegative")
    return comb(m + k + 1, m + 1)


def chain_bound_oracle(m, k):
    """|{(d_0..d_m) nonnegative, sum <= k}| by the counting recurrence.

    count(s, b), the number of s-tuples with sum <= b, is 1 for s = 0 and
    sum_d count(s - 1, b - d) over d = 0..b otherwise: the running sum of
    the row for s - 1.  It is evaluated once per (s, b), as a table over
    the budgets b = 0..k, one row of prefix sums at a time.
    """
    if m + k > 12:
        raise ValueError(f"oracle cap exceeded: m + k = {m + k} > 12")
    counts = [1] * (k + 1)
    for _ in range(m + 1):
        counts = list(accumulate(counts))
    return counts[k]


class BoundsConfig(
    namedtuple("BoundsConfig", "dim betti_Z betti_mod_p torsion_primes mu")
):
    """Numerical invariants of a space, as inputs to the constants."""

    __slots__ = ()

    def __new__(cls, dim, betti_Z, betti_mod_p, torsion_primes, mu):
        self = tuple.__new__(cls, (dim, betti_Z, betti_mod_p, torsion_primes, mu))
        _check_counts("mu", [self.mu])
        _check_counts("dim", [self.dim])
        _check_counts("Betti number", self.betti_Z)
        # A space of dimension dim has one Betti number in each degree
        # 0..dim, and b_0 >= 1 unless it is empty, which no bound is for;
        # the bounds take the Mann-Su constant mu >= 1.
        if len(self.betti_Z) != self.dim + 1:
            raise ValueError(
                f"a space of dimension {self.dim} has {self.dim + 1} Betti "
                f"numbers, not {len(self.betti_Z)}"
            )
        if self.betti_Z[0] < 1:
            raise ValueError("b_0 = 0: the space is empty")
        if self.mu < 1:
            raise ValueError(f"mu {self.mu} is not a positive integer")
        for bs in self.betti_mod_p.values():
            _check_counts("mod-p Betti number", bs)
        primes = set(self.betti_mod_p) | set(self.torsion_primes)
        _check_counts("prime", primes)
        for p in sorted(primes):
            check_prime(p)
        missing = set(self.torsion_primes) - set(self.betti_mod_p)
        if missing:
            raise ValueError(
                f"missing mod-{min(missing)} Betti data for a torsion prime"
            )
        # Universal coefficients: b_j(F_p) = b_j + t_j + t_(j-1), where t_j >= 0
        # counts the p-primary cyclic summands of H_j's torsion: none in the
        # top degree, and none at all unless p is a torsion prime.
        for p, bs in sorted(self.betti_mod_p.items()):
            diffs = (bp - b for b, bp in zip(self.betti_Z, bs))
            ts = list(accumulate(diffs, lambda t, d: d - t))
            torsion = p in self.torsion_primes
            if len(bs) != len(self.betti_Z) or ts and ts[-1] or any(
                t < 0 or t and not torsion for t in ts
            ):
                raise ValueError(
                    f"mod-{p} Betti numbers {list(bs)} contradict universal "
                    f"coefficients with Betti numbers {list(self.betti_Z)}"
                )
        return self

    @classmethod
    def from_json(cls, data):
        """Config from a JSON object; ``torsion_primes`` may be left out."""
        betti_mod_p = _json_field(data, "betti_mod_p", "bounds config")
        if not isinstance(betti_mod_p, dict):
            raise ValueError("betti_mod_p maps primes to lists of Betti numbers")
        return cls(
            dim=_json_field(data, "dim", "bounds config"),
            betti_Z=tuple(_json_field(data, "betti_Z", "bounds config")),
            betti_mod_p={int(p): tuple(bs) for p, bs in betti_mod_p.items()},
            torsion_primes=frozenset(data.get("torsion_primes", ())),
            mu=_json_field(data, "mu", "bounds config"),
        )

    def to_json(self):
        return {
            "dim": self.dim,
            "betti_Z": list(self.betti_Z),
            "betti_mod_p": {
                str(p): list(bs) for p, bs in sorted(self.betti_mod_p.items())
            },
            "torsion_primes": sorted(self.torsion_primes),
            "mu": self.mu,
        }

    def betti_for(self, p):
        """Mod-p Betti numbers: the given ones, else the integral ones, which
        they equal at a prime with no p-torsion by universal coefficients."""
        return tuple(self.betti_mod_p.get(p, self.betti_Z))

    def total_betti(self):
        return sum(self.betti_Z)

    def has_odd_cohomology(self):
        if self.torsion_primes:
            return True
        return any(
            b for j, b in enumerate(self.betti_Z) if j % 2 == 1
        )

    def euler(self):
        return sum((-1) ** j * b for j, b in enumerate(self.betti_Z))

    def minkowski_bound(self):
        """3^b with b = sum b_j^2, which bounds |prod GL(b_j, F_3)|."""
        return 3 ** sum(bj ** 2 for bj in self.betti_Z)


def _check_counts(what, values):
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            raise ValueError(f"{what} {v!r} is not a nonnegative integer")


def chi_exponent(p, total_betti):
    """Smallest n with p^(n+1) > 2 * total_betti.

    With total_betti = sum b_j(X; F_p), the p^n-th powers of a p-group
    preserve chi on every subgroup (the Gamma_chi construction).
    """
    n = 0
    while p ** (n + 1) <= 2 * total_betti:
        n += 1
    return n


def C_p_chi(p, cfg):
    """(n, p^(n mu)): n smallest with p^(n+1) > 2 * sum b_j(X; F_p)."""
    n = chi_exponent(p, sum(cfg.betti_for(p)))
    return n, p ** (n * cfg.mu)


def P_chi(cfg):
    """max{p_0, 2 * sum b_j + 1}; p_0 is the torsion-clearing prime."""
    return max(_p0(cfg), 2 * cfg.total_betti() + 1)


def _p0(cfg):
    """Smallest prime exceeding every torsion prime.

    Above the torsion primes, universal coefficients gives
    b_j(F_p) = b_j for all j.  By Bertrand's postulate there is a prime
    in (b, 2b] for the largest torsion prime b (or b = 1).
    """
    bound = max(cfg.torsion_primes, default=1)
    return next(p for p in primes_up_to(2 * bound + 3) if p > bound)


def _chain_exponent(cfg):
    """e = C(m + K + 1, m + 1) with m = dim and K = sum over j of
    max_p b_j(X; F_p).  Only at a torsion prime can b_j(F_p) exceed b_j,
    and the config holds every torsion prime's, so the max runs over b_j
    and the given mod-p lists."""
    per_degree = map(max, zip(cfg.betti_Z, *cfg.betti_mod_p.values()))
    return chain_bound(cfg.dim, sum(per_degree))


def C_lambda_factors(lam, cfg):
    """C_lambda as an exponent map {p: e}, p ascending: p^(n mu) for each
    prime p <= P_chi, the factor C_{p,chi}, times lam^e once for each prime
    p <= lam, with e from ``_chain_exponent``."""
    factors = {
        p: C_p_chi(p, cfg)[0] * cfg.mu for p in primes_up_to(P_chi(cfg))
    }
    times = len(primes_up_to(lam))
    if times:
        e = _chain_exponent(cfg)
        for q, a in factorize(lam):
            factors[q] = factors.get(q, 0) + a * e * times
    return {p: e for p, e in sorted(factors.items()) if e}


def _lambda_chi(cfg):
    """lambda_chi = chi * dim; ValueError on odd cohomology, where no
    composite bound applies."""
    if cfg.has_odd_cohomology():
        raise ValueError(
            "composite bound requires vanishing odd cohomology over Z"
        )
    return cfg.euler() * cfg.dim


def composite_bound(cfg):
    """3^b * C_{lambda_chi} with b = sum b_j^2 and lambda_chi = chi * dim."""
    return _product(composite_bound_factors(cfg))


def composite_bound_factors(cfg):
    """``composite_bound`` as an exponent map: C_{lambda_chi}'s, with 3^b."""
    factors = C_lambda_factors(_lambda_chi(cfg), cfg)
    b = sum(bj ** 2 for bj in cfg.betti_Z)  # cfg.minkowski_bound() is 3^b
    factors[3] = factors.get(3, 0) + b
    return dict(sorted(factors.items()))


def _product(factors):
    return prod(starmap(pow, factors.items()))


def printable(factors):
    """The product of ``factors`` if ``str`` can write it, else None: an
    int longer than the interpreter's limit on decimal digits
    (``sys.get_int_max_str_digits``, 0 for none) cannot be written.

    Each p is at least 2^(p.bit_length() - 1), so when those exponents
    sum past 4 times the limit the product has more than the limit's
    decimal digits (2^4 > 10) and is not built."""
    limit = sys.get_int_max_str_digits()
    if limit and sum(e * (p.bit_length() - 1) for p, e in factors.items()) > 4 * limit:
        return None
    value = _product(factors)
    try:
        str(value)
    except ValueError:
        return None
    return value


class ConstantsReport(
    namedtuple(
        "ConstantsReport",
        "f_values chain_bound_e C_p_chi P_chi C_lambda_factors lambda_chi "
        "composite_bound_factors",
    )
):
    """The constants of one configuration.  C_lambda and the composite
    bound are kept as exponent maps; each prints as its integer, or as
    null beside its ``*_factors`` map when the integer has too many digits
    to print.  The composite bound is None when odd cohomology rules it
    out."""

    __slots__ = ()

    def to_json(self):
        out = {
            "f_values": list(self.f_values),
            "chain_bound_e": self.chain_bound_e,
            "C_p_chi": {str(p): list(v) for p, v in sorted(self.C_p_chi.items())},
            "P_chi": self.P_chi,
            "C_lambda": None,
            "lambda_chi": self.lambda_chi,
            "composite_bound": None,
        }
        for name, factors in (
            ("C_lambda", self.C_lambda_factors),
            ("composite_bound", self.composite_bound_factors),
        ):
            if factors is None:
                continue
            out[name] = printable(factors)
            if out[name] is None:
                out[f"{name}_factors"] = {str(p): e for p, e in factors.items()}
        return out


def constants_report(cfg):
    """Evaluate every constant for one configuration, with f(0) .. f(10)."""
    lam = cfg.euler() * cfg.dim
    p_max = P_chi(cfg)
    per_prime = {p: C_p_chi(p, cfg) for p in primes_up_to(p_max)}
    return ConstantsReport(
        f_values=tuple(f(k) for k in range(11)),
        chain_bound_e=_chain_exponent(cfg),
        C_p_chi=per_prime,
        P_chi=p_max,
        C_lambda_factors=C_lambda_factors(lam, cfg),
        lambda_chi=lam,
        composite_bound_factors=(
            None if cfg.has_odd_cohomology() else composite_bound_factors(cfg)
        ),
    )


class InjectivityVerdict(
    namedtuple("InjectivityVerdict", "injective size collisions", defaults=((),))
):
    __slots__ = ()


def _mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum(map(operator.mul, row, col)) for col in cols) for row in a
    )


def _mat_mod(a, p):
    return tuple(tuple(v % p for v in row) for row in a)


def _check_int_entries(entries):
    """ValueError unless every entry is an int (not a bool, a float or a
    numeric string): one C-level pass over the entries' types."""
    kinds = set(map(type, entries)) - {int}
    if kinds:
        names = ", ".join(sorted(kind.__name__ for kind in kinds))
        raise ValueError(f"matrix entries must be integers, not {names}")


def element_matrix(mats, residues, d):
    """Matrix of an element on H_d: prod_i mats[i][d] ** residues[i]."""
    size = len(mats[0][d])
    image = tuple(
        tuple(1 if i == j else 0 for j in range(size)) for i in range(size)
    )
    for gi, r in enumerate(residues):
        for _ in range(r):
            image = _mat_mul(image, mats[gi][d])
    return image


def minkowski_injectivity_check(matrices):
    """Verify mod-3 reduction is injective on a finite integer matrix group.

    The entries must be ints: a float, a bool or a numeric string raises
    ValueError rather than being truncated or parsed.  The input must be a
    group: closed under multiplication, and every generator below with a
    left inverse in it (both checked).  A left inverse makes a generator
    invertible, so every member, a word in the generators, is invertible
    too, and a finite set of invertible matrices closed under product is a
    group; the identity is in it as y * g for a left inverse y.  A collision would then falsify Minkowski's lemma.
    Closed sets that are not groups raise: the idempotents
    ((1, 0), (0, 0)) and ((1, 3), (0, 0)) agree mod 3 but say nothing
    about the lemma.

    Closure is checked from generators.  Walking the sorted input, each
    matrix not yet reached becomes a generator, and the reached set grows
    under right multiplication by the generators.  Every product must lie
    in the input, so the reached set (all words in the generators) is a
    subset of it; every member is reached, so the two are equal and the
    input is closed.  Each member is multiplied once by each generator:
    O(|S| * |generators|) products, not |S|^2.

    The products are taken on packed integers (Kronecker substitution).
    With B the largest |entry| of the input, at least 1, and
    w = (n * B^2).bit_length() + 1, every entry of a member, of the
    identity and of a product x * g of two members lies strictly inside
    +-2^(w-1), since |(x * g)_ik| <= n * B^2 < 2^(w-1).  A matrix M in
    that range packs to sum M_ij * 2^(w * (i*n + j)), its entries being
    the balanced base-2^w digits, which are unique: two such matrices
    are equal exactly when their codes are.  A generator g becomes the
    n^2 shifted row codes Q_ij = pack(row j of g) << w*n*i, so that
    pack(x * g) = sum over i, j of x_ij * Q_ij, one C-level sum.  Only
    products of members are ever packed, as the walk stops at the first
    product outside the input.
    """
    rows = [tuple(map(tuple, m)) for m in matrices]
    _check_int_entries(chain.from_iterable(chain.from_iterable(rows)))
    mats = set(rows)
    if not mats:
        raise ValueError("empty input")
    sizes = set(map(len, mats)).union(map(len, chain.from_iterable(mats)))
    if len(sizes) != 1:
        raise ValueError("matrices must be square and of equal size")
    n = sizes.pop()
    order = sorted(mats)
    flats = [tuple(chain.from_iterable(m)) for m in order]
    bound = max(1, max(map(abs, chain.from_iterable(flats)), default=0))
    width = (n * bound * bound).bit_length() + 1
    places = [1 << width * k for k in range(n * n)]
    codes = [sum(map(operator.mul, flat, places)) for flat in flats]
    members = dict(zip(codes, flats))
    identity = sum(places[:: n + 1])
    reached = {}
    gens = []
    inverted = set()  # positions in gens of the generators with a left inverse
    for m, code in zip(order, codes):
        if code in reached:
            continue
        rows = [sum(map(operator.mul, row, places)) for row in m]
        shifted = [row << width * n * i for i in range(n) for row in rows]
        todo = [sum(map(operator.mul, x, shifted)) for x in reached.values()]
        if identity in todo:
            inverted.add(len(gens))
        gens.append(shifted)
        todo.append(code)
        while todo:
            product = todo.pop()
            if product in reached:
                continue
            x = members.get(product)
            if x is None:
                raise ValueError("input set is not closed under product")
            reached[product] = x
            products = [sum(map(operator.mul, x, q)) for q in gens]
            # x * g = I fixes g as x's inverse: at most one generator matches.
            if identity in products:
                inverted.add(products.index(identity))
            todo += products
    if len(inverted) != len(gens):
        raise ValueError("input set is not a group")
    reductions = {}
    collisions = []
    for m, flat in zip(order, flats):
        r = tuple(map((3).__rmod__, flat))
        if r in reductions:
            collisions.append((reductions[r], m))
        else:
            reductions[r] = m
    return InjectivityVerdict(not collisions, len(mats), tuple(collisions))


def cohomology_trivializing_subgroup(group, matrices_per_generator):
    """Kernel of the homology action reduced mod 3, with its index bound.

    ``matrices_per_generator`` lists, for each canonical generator, a list
    of integer matrices (one per homology degree, size b_j), whose entries
    must be ints, as in ``minkowski_injectivity_check``.  The matrices
    must define a homomorphism: generator images commute and have the
    generator's order.  Returns (G, 3^b) with b = sum b_j^2; Minkowski's
    lemma makes the mod-3 kernel act trivially on integral homology, and
    [A:G] <= |prod GL(b_j, F_3)| <= 3^b is certified directly.
    """
    mats = [
        [tuple(map(tuple, m)) for m in per_degree]
        for per_degree in matrices_per_generator
    ]
    matrices = chain.from_iterable(mats)
    _check_int_entries(chain.from_iterable(chain.from_iterable(matrices)))
    if len(mats) != group.rank:
        raise ValueError("need one matrix list per canonical generator")
    # The trivial group has no generators, so no homology shape: b = 0.
    degrees = tuple(len(m) for m in mats[0]) if mats else ()
    for per_degree in mats:
        if tuple(len(m) for m in per_degree) != degrees:
            raise ValueError("generators act on different homology shapes")
        for m in per_degree:
            if any(len(row) != len(m) for row in m):
                raise ValueError("homology matrices must be square")
    zero = (0,) * group.rank
    identities = [element_matrix(mats, zero, d) for d in range(len(degrees))]
    for gi, order in enumerate(group.factor_orders):
        power = zero[:gi] + (order,) + zero[gi + 1:]
        for d, identity in enumerate(identities):
            if element_matrix(mats, power, d) != identity:
                raise ValueError(
                    f"generator {gi} matrix in degree {d} does not have "
                    f"order dividing {order}"
                )
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            for d in range(len(degrees)):
                a, b = mats[i][d], mats[j][d]
                if _mat_mul(a, b) != _mat_mul(b, a):
                    raise ValueError(
                        f"generator matrices {i} and {j} do not commute"
                    )
    members = [
        g
        for g in group.elements()
        if all(
            _mat_mod(element_matrix(mats, g.residues, d), 3) == identities[d]
            for d in range(len(degrees))
        )
    ]
    kernel_sub = Subgroup(group, members)
    b = sum(n ** 2 for n in degrees)
    bound = 3 ** b
    if kernel_sub.index > bound:
        raise AssertionError(
            f"[A:G] = {kernel_sub.index} exceeds the Minkowski bound {bound}"
        )
    return kernel_sub, bound
