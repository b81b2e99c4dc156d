"""Exact transversal optimization.

tdet maximizes, and tropdet minimizes, the sum of one entry per row and
column (the assignment problem on the entry matrix).  Both return a witness
permutation alongside the value; the value is the contract, the witness is
whichever optimum the solver lands on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .blocks import max_matching_above
from .errors import DomainError, MatrixShapeError, SizeGuardError
from .matrices import IntMatrix

__all__ = [
    "Transversal",
    "tdet",
    "tropdet",
    "brute_assignment",
    "has_transversal_above",
]

BRUTE_MAX_N = 10


@dataclass(frozen=True)
class Transversal:
    """A permutation witness and its entry sum."""

    perm: tuple[int, ...]
    value: int


def _require_square(a: IntMatrix) -> int:
    if a.rows != a.cols:
        raise MatrixShapeError(f"not square: {a.rows}x{a.cols}")
    if a.rows < 1:
        raise MatrixShapeError("empty matrix has no transversal")
    return a.rows


def _solve(a: IntMatrix, maximize: bool) -> Transversal:
    n = _require_square(a)
    arr = a.array
    _, cols = linear_sum_assignment(arr, maximize=maximize)
    perm = tuple(cols.tolist())
    value = int(arr[np.arange(n), cols].sum())
    return Transversal(perm=perm, value=value)


def tdet(a: IntMatrix) -> Transversal:
    """Maximum transversal sum (max over permutations p of sum a[i][p(i)])."""
    return _solve(a, maximize=True)


def tropdet(a: IntMatrix) -> Transversal:
    """Minimum transversal sum (min over permutations p of sum a[i][p(i)])."""
    return _solve(a, maximize=False)


def brute_assignment(a: IntMatrix, objective: str) -> Transversal:
    """Reference solver: enumerate all n! permutations.

    Guarded at n <= 10.  Ties go to the lexicographically smallest
    permutation, which makes the witness reproducible.
    """
    if objective not in ("max", "min"):
        raise DomainError(f"objective must be 'max' or 'min', got {objective!r}")
    n = _require_square(a)
    if n > BRUTE_MAX_N:
        raise SizeGuardError(
            f"brute_assignment is limited to n <= {BRUTE_MAX_N}, got n = {n}"
        )
    entries = a.entries
    best_perm: tuple[int, ...] | None = None
    best_value = 0
    for perm in itertools.permutations(range(n)):
        value = 0
        for i, j in enumerate(perm):
            value += entries[i * n + j]
        if (
            best_perm is None
            or (objective == "max" and value > best_value)
            or (objective == "min" and value < best_value)
        ):
            best_perm = perm
            best_value = value
    assert best_perm is not None
    return Transversal(perm=best_perm, value=best_value)


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
