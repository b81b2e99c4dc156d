"""Exhaustive counting of D(m, n) and brute-force extremes.

Matrices are built row by row, in ascending row-major order, from the
compositions of m into n parts (one int64 array).  A prefix survives only
while every column remainder stays in [0, m * rows_left], so it completes
(the last row is forced); one numpy filter tests all rows at a node.
`count_D` counts the members, memoised on the sorted remainders, the last
two rows in closed form; at n <= 5, past a few m, it evaluates the Ehrhart
polynomial of the Birkhoff polytope instead.  `brute_L` and `brute_U`
branch and bound over the members with sorted rows, skipping rows that
fall between two adjacent columns equal on every placed row, and extend
their column-subset tables for all of a node's children at once.  A
budget, counted in members, caps the work: each refuses past it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .assignment import tdet, tropdet
from .errors import BudgetExceededError, DomainError, TropdetError, _shown
from .matrices import (
    _MAX_CELLS, DSMatrix, IntMatrix, _full, check_entry_limit, split, validate_ds
)

__all__ = [
    "DEFAULT_VISIT_BUDGET",
    "EnumStats",
    "count_D",
    "brute_L",
    "brute_U",
    "random_ds",
]

DEFAULT_VISIT_BUDGET = 50_000_000

# Row pools, and the search's column-subset tables, each kept between calls:
# enough for a sweep over a few cells, and a bound on the memory a long run
# of distinct (m, n), or of n, can hold.  The bound counts pools and tables,
# not bytes: the tables at n = 20 alone hold about 160 MiB.
_POOL_CACHE_SIZE = 8


@dataclass(frozen=True)
class EnumStats:
    """Outcome of a brute-force sweep: count = |D(m, n)| (from count_D; the
    branch and bound visits far fewer members), the extremum, and the first
    (lexicographically smallest) witness attaining it."""

    count: int
    extremum: int
    witness: DSMatrix


@functools.lru_cache(maxsize=_POOL_CACHE_SIZE)
def _compositions(total: int, parts: int) -> np.ndarray:
    """The compositions of total into parts, ascending, as a read-only int64
    array filled in place, 1024 rows a pass: part i is bar i less bar i - 1,
    less 1, with bars in combinations order.  At parts = 1 no combinations
    run: they would hold all of range(total)."""
    k = parts - 1
    rows = math.comb(total + k, k)
    pool = np.empty((rows, parts), np.int64)
    bars = itertools.combinations(range(total + k), k) if k else iter([()])
    for lo in range(0, rows, 1024):
        block = pool[lo : lo + 1024, :k]
        flat = itertools.chain.from_iterable(itertools.islice(bars, len(block)))
        block[...] = np.fromiter(flat, np.int64, block.size).reshape(block.shape)
    pool[:, k] = total + k  # a last bar, past the others
    for i in range(k, 0, -1):
        pool[:, i] -= pool[:, i - 1] + 1
    pool.flags.writeable = False
    return pool


def _check_budget(m: int, n: int, budget: int) -> None:
    """Refuse (m, n) outside the domain, or once a lower bound on |D(m, n)|,
    C(m + n - 1, n - 1) rows among them, passes the budget."""
    split(m, n)  # domain check
    # Refuse on the first of two lower bounds on |D(m, n)| to pass the budget,
    # each grown a factor at a time so neither is built past it: C(a + i, i)
    # first rows (a = max(m, n - 1), i <= min(m, n - 1); each extends to a
    # member) and i! members P + (m - 1) I, P a permutation matrix (i <= n).
    a, k = max(m, n - 1), min(m, n - 1)
    rows = perms = 1
    for i in range(1, n + 1):
        rows = rows * (a + i) // i if i <= k else rows
        perms *= i
        if max(rows, perms) > budget:
            raise BudgetExceededError(budget, max(rows, perms))


def _row_pool(m: int, n: int) -> np.ndarray:
    """The compositions of m into n parts, after _check_budget has passed:
    refused past the cell limit, or past int64 (only n = 1 gets there)."""
    rows = math.comb(m + n - 1, n - 1)  # at most the budget, by that check
    if rows * n > _MAX_CELLS:
        raise DomainError(
            f"the row pool of D({m},{n}) needs rows * n <= {_MAX_CELLS}, "
            f"got {_shown(rows * n)}"
        )
    check_entry_limit(m, n)
    return _compositions(m, n)


def _fits(pool, start, col_rem, cap, top, falls=None, tied=0):
    """The indices and column remainders of the rows of pool[start:], up to
    the last whose first entry is <= top, that keep every remainder in
    [0, cap] and fall across no tied column pair (bit i: columns i, i + 1)."""
    end = pool[:, 0].searchsorted(top, side="right")
    rest = col_rem - pool[start:end]
    # As uint64 a negative remainder wraps past cap.
    keep = (rest.view(np.uint64) <= cap).all(axis=1)
    if tied:
        keep &= (falls[start:end] & tied) == 0
    return keep.nonzero()[0] + start, rest[keep]


def count_D(m: int, n: int, budget: int = DEFAULT_VISIT_BUDGET) -> int:
    """|D(m, n)|, by the DP or, at n <= 5 past its DP nodes, by the Ehrhart
    polynomial (n = 6 would need the DP to m = 11); past budget it raises."""
    _check_budget(m, n, budget)
    s = math.comb(n - 1, 2)
    if n > 5 or m <= s:
        return _count_dp(m, n, budget)
    count = sum(dk * math.comb(m + n + s, k) for k, dk in enumerate(_differences(n)))
    if count > budget:
        raise BudgetExceededError(budget, count)
    return count


def _count_dp(m: int, n: int, budget: int) -> int:
    """|D(m, n)|, memoised on the rows left and the sorted column remainders
    (permuting columns keeps the count); a partial count past budget raises."""
    pool = _row_pool(m, n)

    @functools.cache
    def rec(left: int, col_rem: tuple[int, ...]) -> int:
        if left <= 2:
            return 1 if left == 1 else _two_rows(m, col_rem)
        total = 0
        _, rest = _fits(pool, 0, np.array(col_rem), m * (left - 1), m)
        for key in np.sort(rest, axis=1).tolist():
            total += rec(left - 1, tuple(key))
            # A partial count is <= |D(m, n)|: refuse once it passes budget.
            if total > budget:
                raise BudgetExceededError(budget, total)
        return total

    try:
        return rec(n, (m,) * n)
    finally:
        # rec's closure holds rec: break that cycle, so the memo and the
        # pool are freed now and not at some later garbage collection.
        del rec


@functools.cache
def _differences(n: int) -> tuple[int, ...]:
    """The forward differences D_k of E(t) = |D(t, n)| at x0 = -(n + s),
    s = C(n - 1, 2): E(m) = sum over k of D_k * C(m - x0, k), exactly.

    D(t, n) is the integer points of tB_n, B_n the Birkhoff polytope, of
    dimension d = (n - 1)^2, so E is a polynomial of degree d (Ehrhart).
    The relative interior of tB_n has all entries > 0: its integer points
    are J + D(t - n, n), J all ones, none for 0 < t < n.  So Ehrhart-
    Macdonald reciprocity gives E(-t) = 0 for 0 < t < n and E(-n - k) =
    (-1)^d E(k) for k >= 0.  With E(0) = 1 and E(1..s) from the DP, E is
    known on the n + 2s + 1 = d + 2 integers x0..s.  The spare one checks
    nothing: x -> -n - x maps x0..s onto itself, and the (d + 1)-st
    difference of any (-1)^d-symmetric vector there is its own negative.
    So the DP's E(s + 1) checks the nodes: each, off alone, moves E there.
    """
    d, s = (n - 1) ** 2, math.comb(n - 1, 2)
    # The nodes run past any caller's budget: their work is fixed and small.
    dp = [1] + [_count_dp(t, n, math.inf) for t in range(1, s + 2)]
    values = [(-1) ** d * e for e in dp[s::-1]] + [0] * (n - 1) + dp[: s + 1]
    for k in range(1, d + 2):  # now values[k] is the k-th difference at x0
        values[k:] = [b - a for a, b in zip(values[k - 1 :], values[k:])]
    check = sum(dk * math.comb(2 * s + n + 1, k) for k, dk in enumerate(values))
    if check != dp[s + 1]:
        raise TropdetError(f"|D({s + 1},{n})| is {dp[s + 1]} by DP, {check} by E_{n}")
    return tuple(values[: d + 1])


def _two_rows(m: int, col_rem: tuple[int, ...]) -> int:
    """How many rows x of sum m have max(0, c_j - m) <= x_j <= min(c_j, m).
    Less the lower limits they sum to t with x_j <= w_j, so by inclusion-
    exclusion over the columns S past w_j: sum over S of (-1)^|S| times
    C(t - sum_S (w_j + 1) + n - 1, n - 1), each c_j - x_j then in [0, m]."""
    lows = [max(0, c - m) for c in col_rem]
    t = m - sum(lows)
    terms = [(0, 1)]  # (sum over S of w_j + 1, (-1)^|S|); sums past t give 0
    for c, low in zip(col_rem, lows):
        step = min(c, m) - low + 1
        terms += [(d + step, -s) for d, s in terms if d + step <= t]
    n = len(col_rem)
    return sum(s * math.comb(t - d + n - 1, n - 1) for d, s in terms)


@functools.lru_cache(maxsize=_POOL_CACHE_SIZE)
def _tables(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """For k = 0..n, the k-subsets S of range(n) in combinations order, as
    two read-only (C(n, k) x k) int arrays: the columns j of each S, and the
    rank of S - {j} among the (k - 1)-subsets."""
    levels, rank = [], {}
    for k in range(n + 1):
        subsets = list(itertools.combinations(range(n), k))
        parents = [rank[s[:i] + s[i + 1 :]] for s in subsets for i in range(k)]
        rank = {s: i for i, s in enumerate(subsets)}
        for a in (subsets, parents):
            levels.append(np.array(a, np.intp).reshape(len(subsets), k))
            levels[-1].flags.writeable = False
    return tuple(zip(levels[::2], levels[1::2]))


def _expand(pool, falls, m, sign, level, start, col_rem, left, tied, g):
    """The children of a node with `left` rows to place, all at once: the
    rows j that _fits lets follow row start, with each child's remainders,
    g and bound.  g[S], S in `level`, is the largest partial transversal of
    sign * a into the columns S.  The rows after the child, over bijections
    onto the columns outside S, average the remainders' sum there over their
    number; the bound, max over S of g[S] plus that average's ceiling, is at
    most every completion's key, and equals it with one row left."""
    cap = m * (left - 1)  # also the sum of each child's remainders
    idx, rest = _fits(pool, start, col_rem, cap, col_rem[0] // left, falls, tied)
    cols, parents = level
    g_next = (g[parents] + sign * pool[idx][:, cols]).max(axis=2)
    outside = cap - rest[:, cols].sum(axis=2)
    bounds = (g_next - (-sign * outside) // (left - 1)).max(axis=1)
    return idx, rest, g_next, bounds


def _brute_extreme(m: int, n: int, budget: int, minimize: bool) -> EnumStats:
    """Branch-and-bound over the row-sorted members, in ascending order.

    The key is the largest transversal of sign * a: tdet to minimize, or
    minus tropdet.  A subtree is cut only when its bound is >= the best key
    so far, and only a strictly smaller key replaces the best.  Let w be the
    first member with the optimal key K: every member before it has a larger
    key, so on the path to w the best key is > K while every bound is <= K;
    w is reached, and nothing after replaces it.  An orbit's row-sorted
    member is its lex-smallest, so w is the lex-first attaining member.

    A row is tried only if it does not fall across a tied pair: adjacent
    columns equal on every placed row (all pairs at the root), which join
    the columns into intervals.  Were row k + 1 of w to fall inside an
    interval of rows 1..k, sorting each interval's columns by row k + 1
    would keep rows 1..k and make row k + 1 lex-smaller (row k < row k + 1,
    as row k is constant on each interval); sorting the rows again gives a
    lex-smaller row-sorted member with the same key, against the choice of
    w.  So every prefix of w passes, and the argument above still holds.
    """
    _check_budget(m, n, budget)  # its refusals come first, and it bounds n for 2**n
    if n * 2**n > _MAX_CELLS:
        raise DomainError(
            f"the search's column-subset tables need n * 2**n <= {_MAX_CELLS}, "
            f"got n = {n}"
        )
    count = count_D(m, n, budget)
    pool = _row_pool(m, n)
    sign = 1 if minimize else -1
    bits = 1 << np.arange(n - 1)
    falls = (pool[:, :-1] > pool[:, 1:]) @ bits
    ties = ((pool[:, :-1] == pool[:, 1:]) @ bits).tolist()
    levels = _tables(n)

    def rec(left, prev, g, col_rem, path, tied):
        nonlocal best_key, best
        idx, rest, g_next, bounds = _expand(
            pool, falls, m, sign, levels[n - left + 1], prev, col_rem, left, tied, g
        )
        for i, (j, bound) in enumerate(zip(idx.tolist(), bounds.tolist())):
            if bound >= best_key:
                continue
            if left > 2:
                rec(left - 1, j, g_next[i], rest[i], path + [j], tied & ties[j])
            # The forced last row must not sort before the row above it.
            elif rest[i].tolist() >= pool[j].tolist():
                best_key, best = bound, (path + [j], rest[i])

    root = np.full(n, m, np.int64)
    best_key, best = sign * m if n == 1 else math.inf, ([], root)  # n = 1: a leaf
    if n > 1:
        rec(n, 0, np.zeros(1, np.int64), root, [], (1 << (n - 1)) - 1)
    value = sign * best_key
    witness = validate_ds(IntMatrix._adopt(np.vstack([pool[best[0]], best[1]])))
    name, solve = ("tdet", tdet) if minimize else ("tropdet", tropdet)
    check = solve(witness.matrix).value
    if check != value:
        raise TropdetError(
            f"search witness fails its re-check: {name} is {check}, "
            f"the search found {value}"
        )
    return EnumStats(count=count, extremum=value, witness=witness)


def brute_L(m: int, n: int, budget: int = DEFAULT_VISIT_BUDGET) -> EnumStats:
    """min over D(m, n) of tdet, by exhaustive enumeration."""
    return _brute_extreme(m, n, budget, minimize=True)


def brute_U(m: int, n: int, budget: int = DEFAULT_VISIT_BUDGET) -> EnumStats:
    """max over D(m, n) of tropdet, by exhaustive enumeration."""
    return _brute_extreme(m, n, budget, minimize=False)


def random_ds(m: int, n: int, seed: int | None = None) -> DSMatrix:
    """A random member of D(m, n): the sum of m random permutation matrices.

    Every member is such a sum, so the support is all of D(m, n), but the
    distribution is not uniform.  Deterministic for a fixed seed.
    """
    split(m, n)
    if m * n > DEFAULT_VISIT_BUDGET:
        raise DomainError(
            f"random needs m * n <= {DEFAULT_VISIT_BUDGET}, got {_shown(m * n)}"
        )
    acc = _full(n, 0, m)
    rng = np.random.default_rng(seed)
    rows = np.arange(n)
    for _ in range(m):
        acc[rows, rng.permutation(n)] += 1
    return validate_ds(IntMatrix._adopt(acc))
