"""Extremal members of D(m, n).

construct_min_tdet builds a matrix whose maximum transversal meets the
sharp lower bound; construct_max_tropdet builds one whose minimum
transversal meets the sharp upper bound.  Each is a block matrix [[A1, A2],
[A3, A4]], off-blocks possibly empty, built in the one n x n int64 array it
keeps: a constant, circulant bands (bool windows over one cycled pattern)
added in place, and in the hard case an upper-left block dealt round-robin.
extremal_certificate gives the duals and the witness permutation that
prove each construction's value with assignment.check_certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import Certificate
from .bounds import CaseTag, lower_bound_L, smallest_l, upper_bound_U
from .errors import DomainError
from .matrices import DSMatrix, IntMatrix, _full, split, validate_ds

__all__ = [
    "BlockPlan",
    "plan_hard_case",
    "construct_min_tdet",
    "construct_max_tropdet",
    "extremal_certificate",
]


@dataclass(frozen=True)
class BlockPlan:
    """Shape and marginals of the upper-left block in the hard case.

    The block is l1 x l2 (l1 = l2 = l when the first quadratic holds at
    the minimal l, else (l+1) x l), its entries are capped at q, and its
    line sums are whatever the surrounding circulant blocks leave over.
    a is the total mass of the block.
    """

    l1: int
    l2: int
    a: int
    row_targets: tuple[int, ...]
    col_targets: tuple[int, ...]


def plan_hard_case(m: int, n: int) -> BlockPlan:
    """Block plan for the hard regime n > 2r + r*q with q, r >= 1.

    The excess entries (value q + 1) in the top-right block are laid out
    column by column, r per column, wrapping through the l1 rows so row
    counts differ by at most one; same for the bottom-left block with rows
    and columns swapped.  That evenness is what keeps every marginal of
    the upper-left block inside [0, q * side].
    """
    p = split(m, n)
    q, r = p.q, p.r
    if q < 1 or r < 1 or n <= 2 * r + r * q:
        raise DomainError(
            f"(m, n) = ({m}, {n}) is not in the hard regime "
            f"(need q >= 1, r >= 1 and n > 2r + r*q)"
        )
    l, e1, _ = smallest_l(q, r, n)
    l1, l2 = (l, l) if e1 else (l + 1, l)
    a = (l1 + l2) * r + l1 * l2 * q - n * r
    assert 0 <= a <= q * l1 * l2

    high2, extra2 = divmod(r * (n - l2), l1)
    row_targets = tuple(
        q * l2 + r - (high2 + (1 if i < extra2 else 0)) for i in range(l1)
    )
    high3, extra3 = divmod(r * (n - l1), l2)
    col_targets = tuple(
        q * l1 + r - (high3 + (1 if j < extra3 else 0)) for j in range(l2)
    )
    assert sum(row_targets) == a == sum(col_targets)
    assert all(0 <= x <= q * l2 for x in row_targets)
    assert all(0 <= x <= q * l1 for x in col_targets)
    return BlockPlan(
        l1=l1, l2=l2, a=a, row_targets=row_targets, col_targets=col_targets
    )


def _band(
    rows: int, cols: int, di: int, dj: int, p: int, band: int
) -> np.ndarray:
    """rows x cols circulant mask, True where (dj*j + di*i) mod p < band: row
    i is the window at (di*i) mod p of k mod p < band (dj = 1, else transposed)."""
    if dj != 1:
        return _band(cols, rows, dj, di, p, band).T
    pattern = np.arange(p - 1 + cols) % p < band
    windows = np.ndarray((p, cols), bool, pattern.data.toreadonly(), 0, (1, 1))
    return windows[di * np.arange(rows) % p]


def _deal(plan: BlockPlan) -> np.ndarray:
    """The hard-case upper-left block: plan.a units dealt round-robin.

    Unit k (counted row by row, row i taking t_i = row_targets[i] units)
    lands in column (o + k) mod l2 with o = (-a) mod l2, so cell (i, j)
    counts the k in [T_i, T_{i+1}) with k = c_j (mod l2), where T is the
    running sum of the row targets and c_j = (j - o) mod l2 = (j + a) mod
    l2.  That count is ceil((T_{i+1} - c_j) / l2) - ceil((T_i - c_j) / l2).
    Rows sum to t_i, entries are at most ceil(t_i / l2) <= q, and column j
    gets ceil((a - c_j) / l2), one more on the columns j >= extra3 exactly
    as plan.col_targets asks, since a = -extra3 (mod l2).
    """
    t = np.concatenate(([0], np.cumsum(plan.row_targets)))[:, None]
    c = (np.arange(plan.l2) + plan.a) % plan.l2
    return np.diff(-((c - t) // plan.l2), axis=0)


def construct_min_tdet(m: int, n: int) -> DSMatrix:
    """A member of D(m, n) whose tdet equals lower_bound_L(m, n).

    In the hard regime the matrix is [[A1, A2], [A3, A4]] with A1 the
    l1 x l2 dealt block (entries <= q), A2 and A3 circulants of q and
    q + 1, and A4 all q.  Why that is sharp: a permutation that sends s of
    the l1 top rows into the right columns takes s entries from A2, and
    the l2 - (l1 - s) left columns it fills from bottom rows take entries
    from A3; every other entry it takes is at most q.  As s <= l1, it
    collects at most s + (l2 - l1 + s) <= l1 + l2 units above q * n, and
    tdet <= q*n + l1 + l2 = L(m, n) for any such fill of A1.  The theorem
    gives tdet >= L(m, n) for every member of D(m, n).
    """
    res = lower_bound_L(m, n)
    q, r = res.params.q, res.params.r
    tag = res.case_tag
    body = _full(n, q, q + (r > 0))  # q + 1 is the top entry once r > 0

    if tag is CaseTag.Q_ZERO:
        body += _band(n, n, -1, 1, n, m)
    elif tag in (CaseTag.HALF_UP, CaseTag.SHARP2):
        if tag is CaseTag.HALF_UP:
            body[:r, :r] += _band(r, r, -1, 1, r, 2 * r - n)
        else:
            # Spread the deficit n - 2r over the r x r block: constant
            # drop of (n - 2r) // r everywhere plus a circulant -1 band.
            drop, band = divmod(n - 2 * r, r)
            assert q - drop - (1 if band else 0) >= 0
            np.subtract(q - drop, _band(r, r, -1, 1, r, band), out=body[:r, :r])
        body[:r, r:] += 1
        body[r:, :r] += 1
    elif tag in (CaseTag.HARD_CASE1, CaseTag.HARD_CASE2):
        plan = plan_hard_case(m, n)
        l1, l2 = plan.l1, plan.l2
        body[:l1, :l2] = _deal(plan)
        body[:l1, l2:] += _band(l1, n - l2, 1, -r, l1, r)
        body[l1:, :l2] += _band(n - l1, l2, -r, 1, l2, r)
    return validate_ds(IntMatrix._adopt(body))


def construct_max_tropdet(m: int, n: int) -> DSMatrix:
    """A member of D(m, n) whose tropdet equals upper_bound_U(m, n)."""
    p = split(m, n)
    q, r = p.q, p.r
    side = n - r
    # The upper-left block spreads r extra units per line: a circulant band
    # of +1 when r < side, else a whole-block lift of r // side plus a band
    # for the remainder.
    lift, band = divmod(r, side)
    body = _full(n, q, q + lift + (band > 0))
    if r:
        np.add(_band(side, side, -1, 1, side, band), q + lift, out=body[:side, :side])
        body[side:, side:] += 1
    return validate_ds(IntMatrix._adopt(body))


def _band_witness(size: int, r: int) -> np.ndarray:
    """Increasing lines c_0 < c_1 < ... of a circulant band, line c_k holding
    cell k, where line c holds the cells (r*c + s) mod size for s < r.

    With r = 1 or r >= size, line k holds cell k.  Otherwise cell k sits at
    the unrolled position k*(size + 1) = r*c + s, and as the step size + 1
    is at least r, the lines c = k*(size + 1) // r are distinct.  In the
    hard regime the minimality of l keeps the last of them inside its
    block: (l1 - 1)(l1 + 1) < r(n - l2), and likewise with l1, l2 swapped.
    """
    k = np.arange(size)
    if r == 1 or r >= size:
        return k
    return k * (size + 1) // r


def extremal_certificate(m: int, n: int, objective: str) -> Certificate:
    """Duals u, v and a witness permutation proving a construction's value.

    objective "min-tdet": for construct_min_tdet(m, n), checked with
    maximize=True, summing to L(m, n).  "max-tropdet": for
    construct_max_tropdet(m, n), checked with maximize=False, summing to
    U(m, n).  With m = q*n + r, side = n - r and k = 2r - n, the duals
    start at u = q, v = 0, and the witness uses only tight cells:

      R_ZERO   -                           identity
      Q_ZERO   u = 1                       identity (the band's diagonal)
      HALF_UP  u = q + 1                   rows [0,k) -> columns [0,k),
                                           [k,r) -> [r,n), [r,n) -> [k,r)
      SHARP2   u += 1 on rows < r,         reversal i -> n - 1 - i
               v = 1 on columns < r
      HARD_*   u += 1 on rows < l1,        rows < l1 onto q + 1 cells of the
               v = 1 on columns < l2       upper-right band, columns < l2
                                           onto q + 1 cells of the lower-left
                                           band (_band_witness), the rest
                                           meet in the all-q block
      LOW_R    -                           row i < r -> side + i, others
                                           (i + r) mod side
      HIGH_R   u += 1 on rows >= side,     reversal
               v = -1 on columns < side
    """
    if objective == "min-tdet":
        tag = lower_bound_L(m, n).case_tag
    elif objective == "max-tropdet":
        tag = upper_bound_U(m, n).case_tag
    else:
        raise DomainError(
            f"objective must be 'min-tdet' or 'max-tropdet', got {objective!r}"
        )
    q, r = divmod(m, n)
    side, k = n - r, 2 * r - n
    i = np.arange(n)
    u, v, perm = [q] * n, [0] * n, i
    if tag in (CaseTag.Q_ZERO, CaseTag.HALF_UP):
        u = [q + 1] * n
        if tag is CaseTag.HALF_UP:
            perm = np.concatenate((i[:k], i[r:], i[k:r]))
    elif tag is CaseTag.SHARP2:
        u = [q + 1] * r + [q] * side
        v = [1] * r + [0] * side
        perm = i[::-1]
    elif tag in (CaseTag.HARD_CASE1, CaseTag.HARD_CASE2):
        plan = plan_hard_case(m, n)
        l1, l2 = plan.l1, plan.l2
        u = [q + 1] * l1 + [q] * (n - l1)
        v = [1] * l2 + [0] * (n - l2)
        perm = np.full(n, -1)
        perm[:l1] = l2 + _band_witness(l1, r)
        perm[l1 + _band_witness(l2, r)] = i[:l2]
        perm[perm < 0] = np.setdiff1d(i[l2:], perm[:l1])
    elif tag is CaseTag.LOW_R:
        perm = np.concatenate((i[side:], (i[r:] + r) % side))
    elif tag is CaseTag.HIGH_R:
        u = [q] * side + [q + 1] * r
        v = [-1] * side + [0] * r
        perm = i[::-1]
    return Certificate(u=tuple(u), v=tuple(v), perm=tuple(perm.tolist()))
