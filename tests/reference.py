"""Exhaustive references the suite checks the package against.

Nothing here imports tropdet, so a fault in the package cannot also sit in
the reference it is compared with.  Each routine is the plainest complete
search, fit only for the small sizes the tests use.
"""

import functools
import itertools

import numpy as np


@functools.lru_cache(maxsize=None)
def _perm_cells(n):
    """The flat row-major cells of every permutation of range(n), as an
    (n!, n) index table in itertools.permutations order."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    return perms + n * np.arange(n)


def transversal_sums(a):
    """Every permutation's entry sum of each square a[..., :, :], in
    itertools.permutations order: exact in int64, since IntMatrix keeps
    max entry * n below 2**63."""
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[-1]
    return a.reshape(a.shape[:-2] + (n * n,))[..., _perm_cells(n)].sum(axis=-1)


def low_blocks(a, t):
    """The largest |R| + |C| with every entry of R x C at most t, and every
    row set R that attains it.

    For a fixed row set R the best C is every column that no row of R
    exceeds t in, so one pass over the 2^rows row sets is exact.
    """
    high = np.asarray(a) > t
    rows, cols = high.shape
    sums = {
        r: len(r) + cols - int(high[list(r)].any(axis=0).sum())
        for k in range(rows + 1)
        for r in itertools.combinations(range(rows), k)
    }
    best = max(sums.values())
    return best, [r for r, s in sums.items() if s == best]


def low_block_sum(a, t):
    """The largest |R| + |C| with every entry of R x C at most t."""
    return low_blocks(a, t)[0]


def compositions(total, parts):
    """The compositions of total into parts, in ascending order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def members(m, n):
    """Every member of D(m, n), flattened row-major, in ascending order.
    Rows go on one at a time, and a prefix is kept only while every column
    remainder lies in [0, m * rows_left], which is when it can complete."""
    rows = list(compositions(m, n))

    def walk(left, col_rem, acc):
        if left == 0:
            yield acc
            return
        for row in rows:
            rest = tuple(c - x for c, x in zip(col_rem, row))
            if all(0 <= d <= m * (left - 1) for d in rest):
                yield from walk(left - 1, rest, acc + row)

    return walk(n, (m,) * n, ())
