"""Exact integer matrix routines: Hermite form, kernels, Smith diagonals.

Everything here works with arbitrary-precision Python ints.  The dense
routines take matrices as lists of rows (lists/tuples of ints) and run one
Euclid loop, ``hermite_normal_form``: ``kernel_basis`` reads the kernel off
the Hermite form of the transpose augmented with an identity block.
The sparse routines share one unit-pivot core, ``_unit_pivots``, run over
Z or over F_p, on a row index and a column index that ``_index`` builds in
one pass over (row, col, entry) triples.  ``reduce_chain_complex`` takes
its boundary maps as such triples; ``smith_diagonal`` and ``rank_mod_p``
take a dict (row, col) -> int, as are the residuals it returns.  The core
pivots only on units, so one pass of row operations clears the pivot
column exactly, and it has one pivot rule, least fill: a shortest row
holding a unit, in the sparsest of that row's unit columns (Dumas,
Saunders and Villard, "On efficient sparse integer matrix Smith normal
form computations", J. Symb. Comp. 2001).

Free faces are paired off in one place, on the face poset before any
matrix is built (``simplicial._pair_off``), so for a complex the core
sees only the cells that coreduction leaves, usually a Betti-sized
residual.  ``reduce_chain_complex`` runs the core once over Z
on each of those boundary maps, as a sequence of elementary reductions,
and certifies that what is left is a chain complex with the same Euler
characteristic.  ``smith_diagonal`` and ``rank_mod_p`` (``_eliminate``)
then finish the small residual matrices; over Z the part without a +-1
entry is finished by Euclid steps on a smallest entry.

``factorize`` is the one integer factorization the package uses,
``is_prime`` the one primality test, and ``check_prime`` the one check
that refuses a prime argument that is not prime; ``primes_up_to`` lists
the primes up to n with a sieve, which ``is_prime`` checks in the tests.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from itertools import compress


def hermite_normal_form(rows, ncols):
    """Row-style Hermite normal form of the lattice spanned by ``rows``.

    Returns the nonzero rows as a list of tuples.  Pivots are positive,
    entries above each pivot are reduced into [0, pivot).  The result is a
    canonical basis of the row lattice, so two generating sets span the
    same lattice iff their HNFs are equal.
    """
    mat = [list(r) for r in rows]
    if any(len(r) != ncols for r in mat):
        raise ValueError("ragged matrix")
    row = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(row, len(mat)):
            if mat[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[row], mat[pivot_row] = mat[pivot_row], mat[row]
        for i in range(row + 1, len(mat)):
            # Euclid on the (row, i) entries of this column.
            while mat[i][col] != 0:
                q = mat[row][col] // mat[i][col]
                mat[row] = [a - q * b for a, b in zip(mat[row], mat[i])]
                mat[row], mat[i] = mat[i], mat[row]
        if mat[row][col] < 0:
            mat[row] = [-a for a in mat[row]]
        for i in range(row):
            q = mat[i][col] // mat[row][col]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[row])]
        row += 1
    return [tuple(r) for r in mat[:row]]


def kernel_basis(rows, ncols):
    """Basis of the integer kernel {v in Z^ncols : rows @ v = 0}.

    ``rows`` is an r x ncols matrix.  Returns a list of tuples of length
    ``ncols``.  Row j of [rows^T | I] is (column j, e_j), so the lattice
    vectors whose first r entries vanish are (0, v) for v in the kernel;
    in Hermite form they are the rows past the last pivot in those columns.
    """
    r = len(rows)
    aug = [
        [row[j] for row in rows] + [1 if t == j else 0 for t in range(ncols)]
        for j in range(ncols)
    ]
    return [h[r:] for h in hermite_normal_form(aug, r + ncols) if not any(h[:r])]


def _index(entries, p=None, skip_rows=()):
    """Row and column index of the nonzero (row, col, entry) triples
    ``entries`` (reduced mod ``p``), leaving out the rows in ``skip_rows``.

    Rows and columns are indexed in the order the triples first name them.
    """
    rows: dict[int, dict[int, int]] = defaultdict(dict)
    cols: dict[int, set[int]] = defaultdict(set)
    for r, c, v in entries:
        if p:
            v %= p
        if v and r not in skip_rows:
            rows[r][c] = v
            cols[c].add(r)
    heap = [(len(row), r) for r, row in rows.items()]
    heapq.heapify(heap)
    return rows, cols, heap


def _clear_column(rows, cols, heap, r, c, p):
    """Row operations clearing column ``c`` with row ``r``, over Z or F_p.

    Over Z a non-unit pivot leaves the Euclid remainders in column c.
    Every changed row is pushed on the heap again.
    """
    prow = rows[r]
    a = prow[c]
    inv = pow(a, -1, p) if p else None
    for i in list(cols[c]):
        if i == r:
            continue
        row = rows[i]
        f = row[c] * inv % p if p else row[c] // a
        if not f:
            continue
        for j, w in prow.items():
            v = row.get(j, 0) - f * w
            if p:
                v %= p
            if v:
                if j not in row:
                    cols[j].add(i)
                row[j] = v
            else:
                del row[j]
                cols[j].discard(i)
        if row:
            heapq.heappush(heap, (len(row), i))
        else:
            del rows[i]


def _drop_row(rows, cols, r):
    """Delete row ``r`` from both indexes."""
    for j in rows.pop(r):
        cols[j].discard(r)


def _unit_pivots(rows, cols, heap, p=None):
    """Pivot on units by least fill until none is left.

    Units are any nonzero residue mod p, or +-1 over Z.  A unit pivot at
    (r, c) clears column c, so row r and column c leave the matrix, and
    what stays is the Schur complement.  The pivot is a unit of a shortest
    row, in the sparsest of its unit columns; a pivot alone in its column
    has nothing to clear.  A heap keyed by row length, with a fresh entry
    pushed whenever a row changes, finds the shortest row; the column
    index limits each pivot step to the rows it touches.  Returns the
    pivots as (row, col, entry) triples, in pivot order.
    """
    pivots = []
    pop = heapq.heappop
    while heap:
        n, r = pop(heap)
        prow = rows.get(r)
        if prow is None or len(prow) != n:
            continue  # stale: the row changed or is gone
        c = None  # a unit in the sparsest column, the first such on ties
        for j, v in prow.items():
            if (p or v == 1 or v == -1) and (c is None or len(cols[j]) < fewest):
                c, fewest = j, len(cols[j])
        if c is None:
            continue  # no unit: pushed again if a later step changes the row
        if fewest > 1:
            _clear_column(rows, cols, heap, r, c, p)
        pivots.append((r, c, prow[c]))
        _drop_row(rows, cols, r)
    return pivots


def _eliminate(entries, p=None):
    """Pivots of a diagonalization over Z (``p`` None) or over F_p.

    Unit pivots come first (``_unit_pivots``).  Over Z, once no unit is
    left, the smallest entry is the pivot and the Euclid remainders it
    leaves are pivoted on in turn.  Returns the pivots, as absolute values
    over Z.
    """
    rows, cols, heap = _index(((r, c, v) for (r, c), v in entries.items()), p)
    diagonal = []
    while True:
        diagonal.extend(abs(a) for _, _, a in _unit_pivots(rows, cols, heap, p))
        if not rows:
            return diagonal
        # Only over Z: every nonzero residue mod p is a unit.
        _, r, c = min(
            (abs(v), r, c) for r, row in rows.items() for c, v in row.items()
        )
        a = rows[r][c]
        _clear_column(rows, cols, heap, r, c, None)
        if len(cols[c]) > 1:
            continue  # Euclid left remainders in column c
        # Column c now holds the pivot alone, so column operations touch
        # only row r: they clear it up to remainders mod a.
        rest = {j: v % a for j, v in rows[r].items() if v % a}
        _drop_row(rows, cols, r)
        if rest:
            rows[r] = prow = {c: a, **rest}
            for j in prow:
                cols[j].add(r)
            heapq.heappush(heap, (len(prow), r))
        else:
            diagonal.append(abs(a))


def reduce_chain_complex(sizes, boundaries):
    """Certified reduction over Z of a chain complex with unit pivots.

    ``sizes[d]`` is the number of basis cells of C_d, labelled
    0..sizes[d]-1, and ``boundaries`` yields d_1, d_2, ... as iterables
    of (row, col, entry) triples; each is read only when its degree is
    reached, and its rows and columns are indexed in the order the triples
    first name them.  A unit pivot at (r, c) of d_d is an elementary
    reduction (Kaczynski, Mrozek and Slusarek, "Homology computation by
    reduction of chain complexes", 1998): cell r leaves C_(d-1) and cell c
    leaves C_d, d_d becomes its Schur complement, row c of d_(d+1) and
    column r of d_(d-1) are deleted, and the homology over Z is unchanged.
    Pivots are chosen as in ``_eliminate``.

    Returns ``(cells, residual)``: ``cells[d]`` lists the surviving
    d-cells, ``residual[d]`` is the reduced d_d as a dict on them
    (``residual[0]`` is empty).  Raises AssertionError unless the residual
    is a chain complex on the surviving cells with the input's Euler
    characteristic.
    """
    removed = [set() for _ in sizes]
    residual = [{}]
    previous = {}  # rows of the reduced d_(d-1), final once d_d is reduced
    for d, entries in enumerate(boundaries, 1):
        rows, cols, heap = _index(entries, skip_rows=removed[d - 1])
        for r, c, _ in _unit_pivots(rows, cols, heap):
            removed[d - 1].add(r)
            removed[d].add(c)
        if d > 1:
            residual.append(_entries(previous, removed[d - 1]))
        previous = rows
    if len(sizes) > 1:
        residual.append(_entries(previous, removed[-1]))
    cells = [
        [i for i in range(n) if i not in gone] for n, gone in zip(sizes, removed)
    ]
    _certify_reduction(sizes, cells, residual)
    return cells, residual


def _entries(rows, removed_cols):
    return {
        (r, c): v
        for r, row in rows.items()
        for c, v in row.items()
        if c not in removed_cols
    }


def _certify_reduction(sizes, cells, residual):
    alive = [set(cs) for cs in cells]
    for d in range(1, len(residual)):
        for r, c in residual[d]:
            if r not in alive[d - 1] or c not in alive[d]:
                raise AssertionError(
                    f"reduced boundary {d} has entry ({r}, {c}) off the "
                    f"surviving cells"
                )
    for d in range(2, len(residual)):
        lower: dict[int, list] = {}
        for (r, c), v in residual[d - 1].items():
            lower.setdefault(c, []).append((r, v))
        product: dict[tuple, int] = {}
        for (k, j), v in residual[d].items():
            for i, w in lower.get(k, ()):
                product[(i, j)] = product.get((i, j), 0) + w * v
        if any(product.values()):
            raise AssertionError(
                f"reduced boundaries {d - 1} and {d} do not compose to zero"
            )
    chi = sum((-1) ** d * n for d, n in enumerate(sizes))
    reduced_chi = sum((-1) ** d * len(cs) for d, cs in enumerate(cells))
    if reduced_chi != chi:
        raise AssertionError(
            f"reduction changed the Euler characteristic: {reduced_chi} != {chi}"
        )


def smith_diagonal(entries):
    """Nontrivial diagonal of a Smith-type diagonalization of a sparse matrix.

    ``entries`` maps (row, col) -> nonzero int.  Returns a sorted list of
    positive integers d_1, ..., d_r (r = rank) such that the cokernel of
    the matrix restricted to its column space is the direct sum of Z/d_i.
    The list is not normalized to a divisibility chain; callers wanting
    canonical torsion should split the d_i into prime powers.
    """
    return sorted(_eliminate(entries))


def rank_mod_p(entries, p):
    """Rank over F_p of a sparse integer matrix given as (row, col) -> int.

    Raises ValueError unless ``p`` is a prime int.
    """
    check_prime(p)
    return len(_eliminate(entries, p))


def factorize(n):
    """Prime factorization of a positive int as (p, e) pairs, p increasing."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    factors = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        p = 3 if p == 2 else p + 2
    if n > 1:
        factors.append((n, 1))
    return factors


def is_prime(n):
    """Whether ``n`` is a prime int; floats and booleans are not."""
    if isinstance(n, bool) or not isinstance(n, int):
        return False
    return n > 1 and factorize(n) == [(n, 1)]


def check_prime(p):
    """Raise ValueError unless ``p`` is a prime int (``is_prime``)."""
    if not is_prime(p):
        raise ValueError(f"{p!r} is not prime")


def primes_up_to(n):
    """The primes p <= n, increasing, by the sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return list(compress(range(n + 1), sieve))
