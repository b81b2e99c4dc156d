"""Threshold matchings and low-entry blocks.

For a threshold t, build the bipartite graph joining row i to column j
whenever A[i][j] > t.  A maximum matching there is a longest partial
transversal of entries above t; its complement, through minimum vertex
covers (König), is the largest all-low block: index sets R, S with every
entry of R x S at most t and |R| + |S| = 2n - matching size.

The matching is an augmenting-path search in plain Python over rows held
as int bitsets, and the same pass yields the cover, so no graph library
is loaded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MatrixShapeError
from .matrices import IntMatrix

__all__ = [
    "BlockDecomposition",
    "max_matching_above",
    "has_transversal_above",  # called by bench/'s sweep ops
    "largest_low_block",
]


def _match_rows(above: np.ndarray) -> tuple[list[int], list[int], list[int]]:
    """Maximum matching of the bipartite graph ``above`` (row i joined to
    column j where above[i, j]) and the rows and columns that alternating
    paths reach from its unmatched rows.

    Returns the matched column of each row (-1 for unmatched rows), then
    the reached rows and columns, unsorted.  Rows are bitsets of their
    columns.  A greedy pass gives each row its lowest free column; then
    each unmatched row searches breadth-first for an augmenting path,
    iteratively, and flips it.

    A failed search drops the columns C it reached, for good.  It leaves
    the matching unchanged, every column of C is matched into the rows R
    it reached, and N(R) lies in C and the columns dropped before.  So an
    alternating path that enters C stays in R and C (or earlier dropped
    sets, by induction) and never ends at a free column: no later
    augmenting path passes through C, and C keeps its partners.  A row
    with no augmenting path never gains one after other augmentations, so
    one search per row gives a maximum matching.  By the same argument the
    dropped columns, with their partners and the unmatched rows, are
    exactly what alternating paths reach from the unmatched rows at the
    end: each failed row stays unmatched, and its reach at the end is what
    its search saw, through matching edges that never changed.
    """
    rows, cols = above.shape
    packed = np.packbits(above, axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    adj = [
        int.from_bytes(data[i * width : (i + 1) * width], "little")
        for i in range(rows)
    ]

    match = [-1] * rows
    partner = [-1] * cols
    free = (1 << cols) - 1
    for r, hit in enumerate(adj):
        hit &= free
        if hit:
            c = (hit & -hit).bit_length() - 1
            match[r], partner[c] = c, r
            free ^= 1 << c

    live = (1 << cols) - 1  # the columns not yet dropped
    reached_rows: list[int] = []
    reached_cols: list[int] = []
    unmatched = [r for r, c in enumerate(match) if c < 0]
    for r in unmatched:
        queue, parent, unseen, end = [r], {}, live, -1
        for x in queue:  # grows while it is read: breadth first
            hit = adj[x] & unseen
            unseen ^= hit
            while hit:
                low = hit & -hit
                c = low.bit_length() - 1
                parent[c] = x
                if low & free:
                    end = c
                    break
                queue.append(partner[c])
                hit ^= low
            if end >= 0:
                break
        if end < 0:
            live = unseen
            reached_rows += queue
            reached_cols += parent
            continue
        # Flip the path back to r: each row on it takes the column it reached.
        free ^= 1 << end
        c = end
        while c >= 0:
            x = parent[c]
            partner[c] = x
            match[x], c = c, match[x]
    return match, reached_rows, reached_cols


def max_matching_above(
    a: IntMatrix, t: int
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Maximum bipartite matching on entries strictly above t.

    Works on rectangular matrices.  Returns the matching size and the
    matched (row, column) pairs sorted by row.  Which maximum matching
    comes back is an implementation detail; the size is the contract.
    """
    match = _match_rows(a.array > t)[0]
    pairs = tuple((i, j) for i, j in enumerate(match) if j >= 0)
    return len(pairs), pairs


def has_transversal_above(
    a: IntMatrix, t: int
) -> tuple[bool, tuple[tuple[int, int], ...] | None]:
    """Is there a full transversal using only entries strictly above t?

    Full means min(rows, cols) entries, so rectangular matrices ask for a
    system of distinct representatives of the shorter side.  Returns the
    matched (row, column) pairs as witness, or None.
    """
    size = min(a.rows, a.cols)
    nu, pairs = max_matching_above(a, t)
    if nu >= size:
        return True, pairs
    return False, None


@dataclass(frozen=True)
class BlockDecomposition:
    """Largest all-low block of a square matrix at a given threshold.

    row_set x col_set holds only entries <= threshold and maximizes
    |row_set| + |col_set|.  Either index set may be empty; when no entry is
    low at all the row side is empty and the column side is everything.
    """

    row_set: tuple[int, ...]
    col_set: tuple[int, ...]

    @property
    def dimension_sum(self) -> int:
        return len(self.row_set) + len(self.col_set)


def largest_low_block(a: IntMatrix, t: int) -> BlockDecomposition:
    """Index sets R, S maximizing |R| + |S| with all of R x S at most t.

    Found through the minimum vertex cover of the above-t graph: rows
    reachable from unmatched rows by alternating paths lie outside every
    minimum cover, so taking R = reachable rows and S = unreachable columns
    yields the unique maximal block with fewest rows, the same for every
    maximum matching.  |R| + |S| always equals 2n - matching size.
    """
    if a.rows != a.cols:
        raise MatrixShapeError(f"not square: {a.rows}x{a.cols}")
    _, rows, cols = _match_rows(a.array > t)
    return BlockDecomposition(
        row_set=tuple(sorted(rows)),
        col_set=tuple(sorted(set(range(a.cols)).difference(cols))),
    )
