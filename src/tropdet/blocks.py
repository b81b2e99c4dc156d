"""Threshold matchings and low-entry blocks.

For a threshold t, build the bipartite graph joining row i to column j
whenever A[i][j] > t.  A maximum matching there is a longest partial
transversal of entries above t; its complement, through minimum vertex
covers, is the largest all-low block: index sets R, S with every entry of
R x S at most t and |R| + |S| = 2n - matching size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_bipartite_matching

from .errors import MatrixShapeError
from .matrices import IntMatrix

__all__ = [
    "BlockDecomposition",
    "max_matching_above",
    "largest_low_block",
    "arrange_block_corner",
]


def _match_rows(above: np.ndarray) -> np.ndarray:
    """Hopcroft-Karp maximum matching of the bipartite graph ``above``
    (row i joined to column j where above[i, j]): the matched column of
    each row, -1 for unmatched rows."""
    rows, cols = above.nonzero()
    indptr = np.searchsorted(rows, np.arange(above.shape[0] + 1))
    graph = csr_array(
        (np.ones(cols.size, dtype=bool), cols, indptr), shape=above.shape
    )
    return maximum_bipartite_matching(graph, perm_type="column")


def max_matching_above(
    a: IntMatrix, t: int
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Maximum bipartite matching on entries strictly above t.

    Works on rectangular matrices.  Returns the matching size and the
    matched (row, column) pairs sorted by row.  Which maximum matching
    comes back is up to Hopcroft-Karp; the size is the contract.
    """
    match = _match_rows(a.array > t)
    matched = (match >= 0).nonzero()[0]
    pairs = tuple(zip(matched.tolist(), match[matched].tolist()))
    return len(pairs), pairs


@dataclass(frozen=True)
class BlockDecomposition:
    """Largest all-low block of a square matrix at a given threshold.

    row_set x col_set holds only entries <= threshold and maximizes
    |row_set| + |col_set|.  k1, k2 are the complementary dimensions,
    and row_perm / col_perm reorder the matrix so the block lands in the
    lower-right corner.  Either index set may be empty; when no entry is
    low at all the row side is empty and the column side is everything.
    """

    row_set: tuple[int, ...]
    col_set: tuple[int, ...]
    k1: int
    k2: int
    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]
    threshold: int

    @property
    def dimension_sum(self) -> int:
        return len(self.row_set) + len(self.col_set)


def largest_low_block(a: IntMatrix, t: int) -> BlockDecomposition:
    """Index sets R, S maximizing |R| + |S| with all of R x S at most t.

    Found through the minimum vertex cover of the above-t graph: rows
    reachable from unmatched rows by alternating paths lie outside every
    minimum cover, so taking R = reachable rows yields the unique maximal
    block with fewest rows.  |R| + |S| always equals 2n - matching size.
    """
    if a.rows != a.cols:
        raise MatrixShapeError(f"not square: {a.rows}x{a.cols}")
    n = a.rows
    above = a.array > t
    match_of_row = _match_rows(above)
    matched = (match_of_row >= 0).nonzero()[0]
    match_of_col = np.full(n, -1)
    match_of_col[match_of_row[matched]] = matched

    # Alternating BFS, one level at a time: from the frontier rows along
    # above-t edges to new columns, then back along their matching edges.
    # Every reached column is matched, or the matching would not be maximum.
    reached_rows = match_of_row < 0
    reached_cols = np.zeros(n, dtype=bool)
    frontier = reached_rows
    while True:
        new_cols = above[frontier].any(axis=0) & ~reached_cols
        if not new_cols.any():
            break
        reached_cols |= new_cols
        frontier = match_of_col[new_cols]
        reached_rows[frontier] = True

    row_set = reached_rows.nonzero()[0].tolist()
    col_set = (~reached_cols).nonzero()[0].tolist()
    row_perm = (~reached_rows).nonzero()[0].tolist() + row_set
    col_perm = reached_cols.nonzero()[0].tolist() + col_set
    return BlockDecomposition(
        row_set=tuple(row_set),
        col_set=tuple(col_set),
        k1=n - len(row_set),
        k2=n - len(col_set),
        row_perm=tuple(row_perm),
        col_perm=tuple(col_perm),
        threshold=t,
    )


def arrange_block_corner(
    a: IntMatrix, t: int
) -> tuple[IntMatrix, BlockDecomposition]:
    """Permute rows and columns so the largest low block sits lower-right.

    Returns the permuted matrix together with the decomposition that
    produced it.  Row and column permutations leave all transversal values
    unchanged.
    """
    block = largest_low_block(a, t)
    permuted = a.submatrix(block.row_perm, block.col_perm)
    return permuted, block
