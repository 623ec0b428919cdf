"""All-pairs Minkowski check, the reference for ``aft.bounds``.

It tests closure by multiplying every ordered pair of the input as nested
tuples, |S|^2 products (147,456 for the 384 signed 4x4 permutations), and
then tests that the input is a group: the identity is in it and every
member a has some b in it with a * b = I.  The library generates the
input from generators instead, on packed integers, and asks only each
generator for a left inverse.
"""

from aft.bounds import InjectivityVerdict, _mat_mod, _mat_mul


def minkowski_check(matrices):
    """Verdict of ``minkowski_injectivity_check``, by all-pairs closure."""
    mats = [tuple(tuple(row) for row in m) for m in matrices]
    for m in mats:
        for row in m:
            for v in row:
                if type(v) is not int:
                    raise ValueError("matrix entries must be integers")
    mats = set(mats)
    if not mats:
        raise ValueError("empty input")
    sizes = {len(m) for m in mats} | {len(r) for m in mats for r in m}
    if len(sizes) != 1:
        raise ValueError("matrices must be square and of equal size")
    (n,) = sizes
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    inverted = set()
    for a in mats:
        for b in mats:
            product = _mat_mul(a, b)
            if product not in mats:
                raise ValueError("input set is not closed under product")
            if product == identity:
                inverted.add(a)
    if identity not in mats or inverted != mats:
        raise ValueError("input set is not a group")
    reductions = {}
    collisions = []
    for m in sorted(mats):
        r = _mat_mod(m, 3)
        if r in reductions:
            collisions.append((reductions[r], m))
        else:
            reductions[r] = m
    return InjectivityVerdict(not collisions, len(mats), tuple(collisions))
