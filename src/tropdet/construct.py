"""Extremal members of D(m, n).

construct_min_tdet builds a matrix whose maximum transversal meets the
sharp lower bound; construct_max_tropdet builds one whose minimum
transversal meets the sharp upper bound.  All constructions are block
matrices [[A1, A2], [A3, A4]] (possibly with empty off-blocks): one
constant int64 array with circulant bands, and, in the hard case, a capped
transportation fill of the upper-left block, written into its slices.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import CaseTag, lower_bound_L, smallest_l
from .errors import DomainError, InfeasibleMarginalsError
from .matrices import DSMatrix, IntMatrix, check_entry_limit, split, validate_ds

__all__ = [
    "BlockPlan",
    "fill_bounded_transportation",
    "plan_hard_case",
    "construct_min_tdet",
    "construct_max_tropdet",
]


def fill_bounded_transportation(
    row_targets: Sequence[int], col_targets: Sequence[int], cap: int
) -> IntMatrix:
    """Non-negative integer matrix with given marginals and entries <= cap.

    Deterministic: a row-major greedy pass assigns min(cap, row remainder,
    column remainder) to each cell, then leftover demand is repaired along
    augmenting paths in the residual (raise a cell below cap, lower one
    above zero).  The repair finds a fill whenever one exists; otherwise an
    InfeasibleMarginalsError names what failed.
    """
    rows = [int(x) for x in row_targets]
    cols = [int(x) for x in col_targets]
    if cap < 0:
        raise DomainError(f"cap must be >= 0, got {cap}")
    for name, targets, other_len in (("row", rows, len(cols)), ("column", cols, len(rows))):
        for k, value in enumerate(targets):
            if value < 0:
                raise InfeasibleMarginalsError(
                    f"{name} target {k} is negative: {value}"
                )
            if value > cap * other_len:
                raise InfeasibleMarginalsError(
                    f"{name} target {k} is {value}, exceeding "
                    f"cap * {other_len} = {cap * other_len}"
                )
    if sum(rows) != sum(cols):
        raise InfeasibleMarginalsError(
            f"row targets sum to {sum(rows)} but column targets sum to {sum(cols)}"
        )

    nr, nc = len(rows), len(cols)
    grid = [[0] * nc for _ in range(nr)]
    row_rem = list(rows)
    col_rem = list(cols)
    for i in range(nr):
        for j in range(nc):
            x = min(cap, row_rem[i], col_rem[j])
            grid[i][j] = x
            row_rem[i] -= x
            col_rem[j] -= x

    for start in range(nr):
        while row_rem[start] > 0:
            moved = _augment(grid, cap, row_rem, col_rem, start)
            if moved == 0:
                raise InfeasibleMarginalsError(
                    "no feasible fill: marginals "
                    f"{tuple(rows)} / {tuple(cols)} cannot be met under cap {cap}"
                )

    assert all(rem == 0 for rem in row_rem) and all(rem == 0 for rem in col_rem)
    assert all(0 <= grid[i][j] <= cap for i in range(nr) for j in range(nc))
    return IntMatrix(nr, nc, grid)


def _augment(grid, cap, row_rem, col_rem, start) -> int:
    """Push flow from a deficient row to some column with leftover demand."""
    nr, nc = len(row_rem), len(col_rem)
    prev_row_of_col = [-1] * nc
    prev_col_of_row = [-1] * nr
    seen_row = [False] * nr
    seen_col = [False] * nc
    seen_row[start] = True
    queue: deque[tuple[bool, int]] = deque([(True, start)])
    target = -1
    while queue and target < 0:
        is_row, idx = queue.popleft()
        if is_row:
            for j in range(nc):
                if not seen_col[j] and grid[idx][j] < cap:
                    seen_col[j] = True
                    prev_row_of_col[j] = idx
                    if col_rem[j] > 0:
                        target = j
                        break
                    queue.append((False, j))
        else:
            for i in range(nr):
                if not seen_row[i] and grid[i][idx] > 0:
                    seen_row[i] = True
                    prev_col_of_row[i] = idx
                    queue.append((True, i))
    if target < 0:
        return 0

    path: list[tuple[int, int, int]] = []
    j = target
    while True:
        i = prev_row_of_col[j]
        path.append((i, j, +1))
        if i == start:
            break
        j = prev_col_of_row[i]
        path.append((i, j, -1))
    delta = min(row_rem[start], col_rem[target])
    for i, j, d in path:
        delta = min(delta, cap - grid[i][j] if d > 0 else grid[i][j])
    assert delta > 0
    for i, j, d in path:
        grid[i][j] += d * delta
    row_rem[start] -= delta
    col_rem[target] -= delta
    return delta


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
    cap: int


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
        l1=l1,
        l2=l2,
        a=a,
        row_targets=row_targets,
        col_targets=col_targets,
        cap=q,
    )


def _band(
    rows: int, cols: int, di: int, dj: int, p: int, band: int
) -> np.ndarray:
    """rows x cols circulant mask, True where (dj*j + di*i) mod p < band."""
    i = np.arange(rows)[:, None]
    j = np.arange(cols)[None, :]
    return (dj * j + di * i) % p < band


def construct_min_tdet(m: int, n: int) -> DSMatrix:
    """A member of D(m, n) whose tdet equals lower_bound_L(m, n)."""
    res = lower_bound_L(m, n)
    q, r = res.params.q, res.params.r
    tag = res.case_tag
    check_entry_limit(q + (r > 0), n)  # q + 1 is the top entry once r > 0
    body = np.full((n, n), q, dtype=np.int64)

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
            body[:r, :r] -= drop + _band(r, r, -1, 1, r, band)
        body[:r, r:] += 1
        body[r:, :r] += 1
    elif tag in (CaseTag.HARD_CASE1, CaseTag.HARD_CASE2):
        plan = plan_hard_case(m, n)
        l1, l2 = plan.l1, plan.l2
        body[:l1, :l2] = fill_bounded_transportation(
            plan.row_targets, plan.col_targets, plan.cap
        ).array
        body[:l1, l2:] += _band(l1, n - l2, 1, -r, l1, r)
        body[l1:, :l2] += _band(n - l1, l2, -r, 1, l2, r)
    return validate_ds(IntMatrix(n, n, body))


def construct_max_tropdet(m: int, n: int) -> DSMatrix:
    """A member of D(m, n) whose tropdet equals upper_bound_U(m, n)."""
    p = split(m, n)
    q, r = p.q, p.r
    side = n - r
    # The upper-left block spreads r extra units per line: a circulant band
    # of +1 when r < side, else a whole-block lift of r // side plus a band
    # for the remainder.
    lift, band = divmod(r, side)
    check_entry_limit(q + lift + (band > 0), n)
    body = np.full((n, n), q, dtype=np.int64)
    if r:
        body[:side, :side] += lift + _band(side, side, -1, 1, side, band)
        body[side:, side:] += 1
    return validate_ds(IntMatrix(n, n, body))
