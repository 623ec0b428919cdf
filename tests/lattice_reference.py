"""The parent lattice routines, the reference for ``aft`` lattice algebra.

These are ``kernel_basis``, ``p_part`` and ``intersect`` as they were
before every lattice operation became one Hermite normal form: a Euclid
loop of its own on the transposed matrix for the kernel, intersection as
the kernel of the stacked transposed bases multiplied back by the first
basis, and the p-part as the intersection with the Sylow block.  Tests
compare them with the library as ``Subgroup``s.  ``row_tails`` is the
subgroup enumerator's row step as it was before it solved congruences:
every tail in the box, kept by reducing two vectors against Hermite rows.
"""

import itertools

from aft.groups import GroupElement, Subgroup
from aft.integermat import is_prime


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


def p_part(group, p, parent_subgroup=None):
    """Subgroup of elements of p-power order.

    With ``parent_subgroup`` given, returns its p-part instead of the whole
    group's.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    gens = []
    idx = 0
    for q, exps in group.primary_decomposition:
        for _ in exps:
            if q == p:
                res = [0] * group.rank
                res[idx] = 1
                gens.append(GroupElement(group, res))
            idx += 1
    block = Subgroup(group, gens)
    if parent_subgroup is None:
        return block
    return intersect(block, parent_subgroup)


def intersect(h1, h2):
    """Largest subgroup contained in both arguments."""
    if h1.parent != h2.parent:
        raise ValueError("subgroups of different parent groups")
    k = h1.parent.rank
    if k == 0:
        return h1
    b1 = [list(r) for r in h1.canonical_basis]
    b2 = [list(r) for r in h2.canonical_basis]
    # x in L1 cap L2  <=>  x = a B1 = b B2; solve [B1^T | -B2^T] kernel.
    stacked = [
        [b1[i][j] for i in range(k)] + [-b2[i][j] for i in range(k)]
        for j in range(k)
    ]
    basis = kernel_basis(stacked, 2 * k)
    rows = []
    for v in basis:
        a = v[:k]
        rows.append([sum(a[i] * b1[i][j] for i in range(k)) for j in range(k)])
    return Subgroup.from_rows(h1.parent, rows)


def _reduces_to_zero(vector, basis, start):
    """Whether ``vector``, zero before column ``start``, reduces to zero
    against the Hermite rows basis[start:], row i pivoting in column i."""
    v = list(vector)
    for i in range(start, len(basis)):
        row = basis[i]
        q, r = divmod(v[i], row[i])
        if r:
            return False
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def row_tails(rows, i, d, q, ambient):
    """The tails b of row i = (0, ..., 0, d, b) over the Hermite rows
    i+1..k-1 of ``rows``, in lexicographic order: every b with
    0 <= b_j < d_j for the pivots d_j below, kept when q b (q = m_i / d)
    reduces to zero against those rows, so that m_i e_i stays in the
    lattice, and the row itself reduces to zero against ``ambient``'s rows
    (None for the whole group)."""
    k = len(rows)
    out = []
    for tail in itertools.product(*(range(rows[j][j]) for j in range(i + 1, k))):
        row = (0,) * i + (d,) + tail
        multiple = (0,) * (i + 1) + tuple(q * b for b in tail)
        if _reduces_to_zero(multiple, rows, i + 1) and (
            ambient is None or _reduces_to_zero(row, ambient, i)
        ):
            out.append(tail)
    return out
