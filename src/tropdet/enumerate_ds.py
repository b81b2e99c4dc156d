"""Exhaustive enumeration of D(m, n) and brute-force extremes.

Matrices are generated row by row in ascending lexicographic (row-major)
order.  Each candidate row is a composition of m into n parts; a partial
matrix survives only while every column remainder stays between 0 and
m * rows_left, which makes every visited prefix completable (the final row
is forced to equal the column remainders).  `enumerate_D` visits every
member; `count_D`, `brute_L` and `brute_U` visit one member per row orbit,
weighted by the orbit size, since permuting rows changes neither tdet
nor tropdet.  A visit budget, counted in members, caps the work; blowing
it raises BudgetExceededError with the progress so far.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .assignment import tdet, tropdet
from .errors import BudgetExceededError, DomainError
from .matrices import DSMatrix, IntMatrix, split, validate_ds

__all__ = [
    "DEFAULT_VISIT_BUDGET",
    "EnumStats",
    "enumerate_D",
    "count_D",
    "brute_L",
    "brute_U",
    "random_ds",
]

DEFAULT_VISIT_BUDGET = 50_000_000


@dataclass(frozen=True)
class EnumStats:
    """Outcome of a brute-force sweep: matrices visited, the extremum, and
    the first (lexicographically smallest) witness attaining it."""

    m: int
    n: int
    count: int
    extremum: int
    witness: DSMatrix


@functools.lru_cache(maxsize=None)
def _compositions(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    if parts == 1:
        return ((total,),)
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return tuple(out)


def _row_pool(m: int, n: int, budget: int) -> tuple[tuple[int, ...], ...]:
    """The candidate rows, after both walks' up-front checks."""
    split(m, n)  # domain check
    if budget < 1:
        raise BudgetExceededError(0, budget)
    # Each first row extends to at least one member, so the row pool size
    # is a lower bound on the total count: refuse before materializing.
    if math.comb(m + n - 1, n - 1) > budget:
        raise BudgetExceededError(0, budget)
    return _compositions(m, n)


def _visit_flat(
    m: int, n: int, budget: int, sink: Callable[[tuple[int, ...]], None]
) -> int:
    """Feed every member of D(m, n), flattened row-major, to sink."""
    pool = _row_pool(m, n, budget)
    count = 0

    def rec(placed: int, col_rem: tuple[int, ...], acc: tuple[int, ...]):
        nonlocal count
        if placed == n - 1:
            count += 1
            if count > budget:
                raise BudgetExceededError(count - 1, budget)
            sink(acc + col_rem)
            return
        cap = m * (n - placed - 1)
        for row in pool:
            new_rem = []
            for c, x in zip(col_rem, row):
                d = c - x
                if d < 0 or d > cap:
                    break
                new_rem.append(d)
            else:
                rec(placed + 1, tuple(new_rem), acc + row)

    rec(0, (m,) * n, ())
    return count


def enumerate_D(
    m: int,
    n: int,
    visitor: Callable[[IntMatrix], None],
    budget: int = DEFAULT_VISIT_BUDGET,
) -> int:
    """Call visitor on every member of D(m, n) exactly once, in ascending
    row-major lexicographic order.  Returns the visit count."""
    return _visit_flat(m, n, budget, lambda flat: visitor(IntMatrix(n, n, flat)))


def _visit_orbits(
    m: int, n: int, budget: int, sink: Callable[[tuple[int, ...], int], None]
) -> int:
    """Feed sink the row-sorted member of every row orbit of D(m, n),
    flattened row-major, with the orbit size n! / prod(multiplicity!) over
    its distinct rows; return |D(m, n)|.

    Members are fed in ascending row-major order, and an orbit's row-sorted
    member is its lex-smallest, so the first member fed with a row-invariant
    property (a tdet or tropdet value) is the lex-first in all of D(m, n).
    The budget counts members: the walk stops once the orbit sizes pass it.
    """
    pool = _row_pool(m, n, budget)
    fact = math.factorial(n)
    total = 0

    # prev: pool index of the last placed row, run: how often it was placed
    # in a row so far, denom: prod(multiplicity!) of the placed rows.
    def rec(placed, prev, run, denom, col_rem, acc):
        nonlocal total
        if placed == n - 1:
            if col_rem < pool[prev]:
                return
            if col_rem == pool[prev]:
                denom *= run + 1
            weight = fact // denom
            total += weight
            if total > budget:
                raise BudgetExceededError(budget, budget)
            sink(acc + col_rem, weight)
            return
        cap = m * (n - placed - 1)
        for j in range(prev, len(pool)):
            row = pool[j]
            # The rows left are >= row, so each takes at least row[0] from
            # column 0; pool order is ascending in row[0].
            if row[0] * (n - placed) > col_rem[0]:
                break
            new_rem = []
            for c, x in zip(col_rem, row):
                d = c - x
                if d < 0 or d > cap:
                    break
                new_rem.append(d)
            else:
                mult = run + 1 if j == prev else 1
                rec(placed + 1, j, mult, denom * mult, tuple(new_rem), acc + row)

    rec(0, 0, 0, 1, (m,) * n, ())
    return total


def count_D(m: int, n: int, budget: int = DEFAULT_VISIT_BUDGET) -> int:
    """|D(m, n)|, as the sum of the row-orbit sizes."""
    return _visit_orbits(m, n, budget, lambda flat, weight: None)


@functools.lru_cache(maxsize=None)
def _perm_indices(n: int) -> np.ndarray:
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    return np.arange(n) * n + perms


def _brute_extreme(m: int, n: int, budget: int, minimize: bool) -> EnumStats:
    # Transversal extremes are evaluated over whole batches at once: for
    # each of the n! permutations, one flat gather per batch.  Exact
    # integer arithmetic throughout.
    idx = _perm_indices(n)
    batch_cap = max(64, 4_000_000 // max(1, idx.shape[0] * n))
    batch: list[tuple[int, ...]] = []
    # tdet is the per-matrix maximum, to be minimized; tropdet is the
    # per-matrix minimum, to be maximized, which is minimizing the maximum
    # of the negated sums.  argmin keeps the first of equal keys.
    sign = 1 if minimize else -1
    best_key: int | None = None
    best_flat: tuple[int, ...] | None = None

    def flush():
        nonlocal best_key, best_flat
        if not batch:
            return
        table = sign * np.array(batch, dtype=np.int64)[:, idx].sum(axis=2)
        per = table.max(axis=1)
        pos = int(per.argmin())
        if best_key is None or per[pos] < best_key:
            best_key, best_flat = int(per[pos]), batch[pos]
        batch.clear()

    def sink(flat: tuple[int, ...], weight: int):
        batch.append(flat)
        if len(batch) >= batch_cap:
            flush()

    count = _visit_orbits(m, n, budget, sink)
    flush()
    assert best_key is not None and best_flat is not None
    best_value = sign * best_key
    witness = validate_ds(IntMatrix(n, n, best_flat))
    check = tdet(witness.matrix) if minimize else tropdet(witness.matrix)
    assert check.value == best_value
    return EnumStats(m=m, n=n, count=count, extremum=best_value, witness=witness)


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
    rng = np.random.default_rng(seed)
    acc = np.zeros((n, n), dtype=np.int64)
    rows = np.arange(n)
    for _ in range(m):
        acc[rows, rng.permutation(n)] += 1
    return validate_ds(IntMatrix(n, n, acc))
