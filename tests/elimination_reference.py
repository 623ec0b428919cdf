"""The sparse elimination loops ``aft.integermat`` used to run, kept as references.

``smith_diagonal`` pivots on a smallest-magnitude entry found by scanning
every row, and ``rank_mod_p`` on the first entry of the first row, with
no column index: both are quadratic in the number of rows, but they share
no pivot rule or bookkeeping with the library's unit-pivot core.
"""

from __future__ import annotations


def smith_diagonal(entries):
    """Nontrivial diagonal of a Smith-type diagonalization of a sparse matrix.

    ``entries`` maps (row, col) -> nonzero int.  Returns a sorted list of
    positive integers d_1, ..., d_r (r = rank) such that the cokernel of
    the matrix restricted to its column space is the direct sum of Z/d_i.
    The list is not normalized to a divisibility chain; callers wanting
    canonical torsion should split the d_i into prime powers.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for (r, c), v in entries.items():
        if v == 0:
            continue
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, set()).add(r)

    def drop(r, c):
        row = rows[r]
        del row[c]
        if not row:
            del rows[r]
        col = cols[c]
        col.discard(r)
        if not col:
            del cols[c]

    def put(r, c, v):
        if v == 0:
            if r in rows and c in rows[r]:
                drop(r, c)
            return
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, set()).add(r)

    diagonal = []
    while rows:
        # Pivot on a minimal-magnitude entry; prefer +-1 to avoid growth.
        best = None
        for r, row in rows.items():
            for c, v in row.items():
                a = abs(v)
                if best is None or a < best[0]:
                    best = (a, r, c)
                if a == 1:
                    break
            if best is not None and best[0] == 1:
                break
        _, pr, pc = best
        pv = rows[pr][pc]
        # Clear the pivot column with row operations.
        restart = False
        for r in list(cols[pc]):
            if r == pr:
                continue
            v = rows[r][pc]
            q = v // pv
            if q:
                prow = rows[pr]
                for c, w in list(prow.items()):
                    put(r, c, rows.get(r, {}).get(c, 0) - q * w)
            if r in rows and pc in rows.get(r, {}):
                # Nonzero remainder strictly smaller than |pv|: re-pivot.
                restart = True
                break
        if restart:
            continue
        # Clear the pivot row with column operations; the pivot column now
        # contains only the pivot so a column op touches only row pr.
        prow = rows[pr]
        ok = True
        for c in list(prow):
            if c == pc:
                continue
            v = prow[c]
            q = v // pv
            put(pr, c, v - q * pv)
            if pr in rows and c in rows.get(pr, {}):
                ok = False
                break
        if not ok:
            continue
        diagonal.append(abs(pv))
        drop(pr, pc)
    return sorted(diagonal)


def rank_mod_p(entries, p):
    """Rank over F_p of a sparse integer matrix given as (row, col) -> int."""
    rows: dict[int, dict[int, int]] = {}
    for (r, c), v in entries.items():
        v %= p
        if v:
            rows.setdefault(r, {})[c] = v
    rank = 0
    while rows:
        pr = next(iter(rows))
        prow = rows.pop(pr)
        pc = next(iter(prow))
        pv = prow[pc]
        inv = pow(pv, p - 2, p) if p > 2 else pv
        rank += 1
        for r in list(rows):
            row = rows[r]
            v = row.get(pc)
            if not v:
                continue
            factor = (v * inv) % p
            for c, w in prow.items():
                nv = (row.get(c, 0) - factor * w) % p
                if nv:
                    row[c] = nv
                elif c in row:
                    del row[c]
            if not row:
                del rows[r]
    return rank
