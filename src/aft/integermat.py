"""Exact integer matrix routines: Hermite form, kernels, Smith diagonals.

Everything here works with arbitrary-precision Python ints.  The dense
routines take matrices as lists of rows (lists/tuples of ints).
Boundary matrices of subdivided complexes are large but very sparse, so
``smith_diagonal`` and ``rank_mod_p`` take a dict (row, col) -> int and
share one sparse elimination core, ``_eliminate``, run over Z or over
F_p.  It keeps a row index and a column index and pivots only on units,
so one pass of row operations clears the pivot column exactly.  The
pivot rule is least fill: a shortest row holding a unit, in the
sparsest of that row's unit columns (Dumas, Saunders and Villard, "On
efficient sparse integer matrix Smith normal form computations", J. Symb.
Comp. 2001).  Over Z the small residual without a +-1 entry is finished
by Euclid steps on a smallest entry.
"""

from __future__ import annotations

import heapq


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
    ``ncols``.
    """
    nr = len(rows)
    # Work on the transpose augmented with an identity block; row-reduce
    # the transpose part, the surviving identity parts of zero rows form a
    # kernel basis.
    aug = [
        [rows[i][j] for i in range(nr)] + [1 if t == j else 0 for t in range(ncols)]
        for j in range(ncols)
    ]
    row = 0
    for col in range(nr):
        pivot_row = None
        for i in range(row, ncols):
            if aug[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        aug[row], aug[pivot_row] = aug[pivot_row], aug[row]
        for i in range(row + 1, ncols):
            while aug[i][col] != 0:
                q = aug[row][col] // aug[i][col]
                aug[row] = [a - q * b for a, b in zip(aug[row], aug[i])]
                aug[row], aug[i] = aug[i], aug[row]
        row += 1
    return [tuple(r[nr:]) for r in aug[row:]]


def _eliminate(entries, p=None):
    """Pivots of a diagonalization over Z (``p`` None) or over F_p.

    Units are any nonzero residue mod p, or +-1 over Z.  A heap keyed by
    row length, with a fresh entry pushed whenever a row changes, finds
    the shortest row; the column index limits each pivot step to the rows
    it touches.  Over Z, once no unit is left, the smallest entry is the
    pivot and the Euclid remainders it leaves are pivoted on in turn.
    Returns the pivots, as absolute values over Z.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for (r, c), v in entries.items():
        if p:
            v %= p
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, set()).add(r)
    heap = [(len(row), r) for r, row in rows.items()]
    heapq.heapify(heap)
    diagonal = []
    while rows:
        if heap:
            n, r = heapq.heappop(heap)
            prow = rows.get(r)
            if prow is None or len(prow) != n:
                continue  # stale: the row changed or is gone
            units = [c for c, v in prow.items() if p or v in (1, -1)]
            if not units:
                continue  # pushed again if a later step changes it
            c = min(units, key=lambda j: len(cols[j]))
        else:
            _, r, c = min(
                (abs(v), r, c) for r, row in rows.items() for c, v in row.items()
            )
            prow = rows[r]
        a = prow[c]
        inv = pow(a, -1, p) if p else None
        # Row operations clear column c (down to remainders, for Euclid).
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
        if len(cols[c]) > 1:
            continue  # Euclid left remainders in column c
        # Column c now holds the pivot alone, so column operations touch
        # only row r: they clear it up to remainders mod a (only over Z).
        rest = {} if p else {j: v % a for j, v in prow.items() if v % a}
        for j in prow:
            cols[j].discard(r)
        if rest:
            rows[r] = prow = {c: a, **rest}
            for j in prow:
                cols[j].add(r)
            heapq.heappush(heap, (len(prow), r))
        else:
            del rows[r]
            diagonal.append(abs(a))
    return diagonal


def smith_diagonal(entries, nrows, ncols):
    """Nontrivial diagonal of a Smith-type diagonalization of a sparse matrix.

    ``entries`` maps (row, col) -> nonzero int.  Returns a sorted list of
    positive integers d_1, ..., d_r (r = rank) such that the cokernel of
    the matrix restricted to its column space is the direct sum of Z/d_i.
    The list is not normalized to a divisibility chain; callers wanting
    canonical torsion should split the d_i into prime powers.
    """
    return sorted(_eliminate(entries))


def rank_mod_p(entries, p):
    """Rank over F_p of a sparse integer matrix given as (row, col) -> int."""
    return len(_eliminate(entries, p))


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
