"""Exhaustive enumeration of D(m, n) and brute-force extremes.

Matrices are generated row by row in ascending lexicographic (row-major)
order.  Each candidate row is a composition of m into n parts; a partial
matrix survives only while every column remainder stays between 0 and
m * rows_left, which makes every visited prefix completable (the final row
is forced to equal the column remainders).  A visit budget caps the work;
blowing it raises BudgetExceededError with the progress so far.
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


def _visit_flat(
    m: int, n: int, budget: int, sink: Callable[[tuple[int, ...]], None]
) -> int:
    """Feed every member of D(m, n), flattened row-major, to sink."""
    split(m, n)  # domain check
    if budget < 1:
        raise BudgetExceededError(0, budget)
    if n == 1:
        sink((m,))
        return 1
    # Each first row extends to at least one member, so the row pool size
    # is a lower bound on the total count: refuse before materializing.
    if math.comb(m + n - 1, n - 1) > budget:
        raise BudgetExceededError(0, budget)
    pool = _compositions(m, n)
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
            ok = True
            for c, x in zip(col_rem, row):
                d = c - x
                if d < 0 or d > cap:
                    ok = False
                    break
                new_rem.append(d)
            if ok:
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


def count_D(m: int, n: int, budget: int = DEFAULT_VISIT_BUDGET) -> int:
    """|D(m, n)| by plain enumeration."""
    return _visit_flat(m, n, budget, lambda flat: None)


@functools.lru_cache(maxsize=None)
def _perm_indices(n: int) -> np.ndarray:
    perms = list(itertools.permutations(range(n)))
    return np.array(
        [[i * n + p[i] for i in range(n)] for p in perms], dtype=np.intp
    )


def _brute_extreme(m: int, n: int, budget: int, minimize: bool) -> EnumStats:
    # Transversal extremes are evaluated over whole batches at once: for
    # each of the n! permutations, one flat gather per batch.  Exact
    # integer arithmetic throughout.
    idx = _perm_indices(n)
    batch_cap = max(64, 4_000_000 // max(1, idx.shape[0] * n))
    batch: list[tuple[int, ...]] = []
    best_value: int | None = None
    best_flat: tuple[int, ...] | None = None

    def flush():
        nonlocal best_value, best_flat
        if not batch:
            return
        arr = np.array(batch, dtype=np.int64)
        table = arr[:, idx].sum(axis=2)
        if minimize:  # minimize the per-matrix maximum (tdet)
            per = table.max(axis=1)
            pos = int(per.argmin())
            cand = int(per[pos])
            better = best_value is None or cand < best_value
        else:  # maximize the per-matrix minimum (tropdet)
            per = table.min(axis=1)
            pos = int(per.argmax())
            cand = int(per[pos])
            better = best_value is None or cand > best_value
        if better:
            best_value = cand
            best_flat = batch[pos]
        batch.clear()

    def sink(flat: tuple[int, ...]):
        batch.append(flat)
        if len(batch) >= batch_cap:
            flush()

    count = _visit_flat(m, n, budget, sink)
    flush()
    assert best_value is not None and best_flat is not None
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
