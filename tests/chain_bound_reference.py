"""Per-tuple chain-bound count, the reference for ``aft.bounds``.

It counts the nonnegative tuples (d_0, ..., d_m) with sum <= k by
recursing once per tuple prefix, one leaf per tuple: about 2^14 leaves
over m + k <= 12.  The library evaluates the same recurrence once per
(slots, budget) pair, as a table over the budgets.
"""


def chain_bound_count(m, k):
    """|{(d_0..d_m) nonnegative, sum <= k}| by exhaustive enumeration."""

    def count(slots, budget):
        if slots == 0:
            return 1
        return sum(count(slots - 1, budget - d) for d in range(budget + 1))

    return count(m + 1, k)
