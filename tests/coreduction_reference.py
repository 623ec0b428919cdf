"""The coreduction's pairing and the 1-skeleton union-find as they were
when the coface lists came from a sort.

``pair_off`` sorts every facet position by its row, finds each lower
cell's run of cofaces with a ``bisect``, and keeps for each upper cell a
running sum of its alive facets, which is the facet itself once one is
left.  ``component_roots`` keeps its parents in a dict keyed by vertex.
The library now buckets the cofaces in one pass, reads the last alive
facet off the cell's own rows and keeps its parents in a list; the tests
require both to pair off the same cells, seed the same vertices and
find the same roots.  The bodies are the old ones word for word.
"""

import bisect
import itertools
import operator
from collections import deque


def pair_off(rows, k, lower, upper, seed):
    """Coreduce one degree in place: clear the ``lower`` and ``upper``
    alive flags of each pair.

    ``rows`` lists the k facets of each upper cell (``_facets``).  Each
    upper cell keeps its number of alive facets and their sum, which is
    the facet itself once one is left, and a FIFO queue holds the cells
    down to one.  With ``seed``, whenever the queue drains the first alive
    lower cell leaves alone; returns the number of such seeds.
    """
    count = list(map(sum, zip(*[map(lower.__getitem__, rows)] * k)))
    total = list(map(sum, zip(*[map(operator.mul, rows, map(lower.__getitem__, rows))] * k)))
    # With the facet positions sorted by row, the cofaces of row f are
    # cofaces[start[f]:start[f + 1]].
    order = sorted(range(len(rows)), key=rows.__getitem__)
    by_row = list(map(rows.__getitem__, order))
    start = list(map(bisect.bisect_left, itertools.repeat(by_row), range(len(lower) + 1)))
    cofaces = list(map(operator.floordiv, order, itertools.repeat(k)))
    queue = deque(itertools.compress(range(len(count)), map((1).__eq__, count)))
    seeds = first = 0
    while queue or seed:
        if queue:
            c = queue.popleft()
            if count[c] != 1:
                continue  # it left, or its last alive facet did
            upper[c] = 0
            f = total[c]
        else:
            f = first = lower.find(1, first)
            if f < 0:
                break
            seeds += 1
        lower[f] = 0
        for c in cofaces[start[f] : start[f + 1]]:
            count[c] -= 1
            total[c] -= f
            if count[c] == 1:
                queue.append(c)
    return seeds


def component_roots(complex_):
    """Union-find root of each vertex over the edges."""
    parent = {v: v for v in complex_.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for s in complex_.simplices(1):
        a, b = find(s[0]), find(s[1])
        if a != b:
            parent[a] = b
    return [find(v) for v in complex_.vertices]
