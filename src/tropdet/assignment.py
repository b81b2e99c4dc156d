"""Exact transversal optimization.

tdet maximizes, and tropdet minimizes, the sum of one entry per row and
column (the assignment problem on the entry matrix).  Both return a witness
permutation alongside the value; the value is the contract, the witness is
whichever optimum the solver lands on.

check_certificate proves such a value without solving: duals u, v that
bound every cell (u_i + v_j >= a_ij when maximizing, <= when minimizing)
and a permutation on cells where the bound is tight give a transversal
sum equal to sum(u) + sum(v), which no permutation can beat (Kuhn 1955,
complementary slackness).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, DomainError, MatrixShapeError
from .matrices import IntMatrix

__all__ = [
    "Certificate",
    "Transversal",
    "check_certificate",
    "tdet",
    "tropdet",
]

# float64 holds every integer below 2**53 exactly; the solve runs in float64.
FLOAT_EXACT = 2**53


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
    # scipy.optimize is most of the package's import time and only the
    # solve needs it.
    from scipy.optimize import linear_sum_assignment

    n = _require_square(a)
    arr = a.array
    hi = int(arr.max())
    if n * hi >= FLOAT_EXACT:
        # Shifting every entry by one constant shifts every transversal by
        # n times it, so the optimum stays put.  The subtraction runs in
        # int64 and only its result is cast: casting first would round.
        lo = int(arr.min())
        if n * (hi - lo) >= FLOAT_EXACT:
            raise DomainError(
                f"entry range {hi - lo} with n = {n} is past the "
                f"exact float64 solve: need n * (max - min) < 2**53"
            )
        arr = np.subtract(arr, lo, out=np.empty(arr.shape), casting="unsafe")
    # One float64 copy, negated here for a maximum: with maximize=True scipy
    # would convert the entries and then negate into a second n x n copy.
    cost = np.asarray(arr, dtype=float)
    if maximize:
        np.negative(cost, out=cost)
    _, cols = linear_sum_assignment(cost)
    perm = tuple(cols.tolist())
    value = int(a.array[np.arange(n), cols].sum())
    return Transversal(perm=perm, value=value)


@dataclass(frozen=True)
class Certificate:
    """Duals u (rows) and v (columns) and a witness permutation."""

    u: tuple[int, ...]
    v: tuple[int, ...]
    perm: tuple[int, ...]


def check_certificate(
    a: IntMatrix, cert: Certificate, maximize: bool
) -> Transversal:
    """The witness transversal of a, once cert proves it optimal.

    Checks, in exact integers, that perm is a permutation, that the duals
    bound every cell (u_i + v_j >= a_ij when maximizing, <= otherwise), that
    every witness cell is tight, and that sum(u) + sum(v) equals the
    witness sum.  Any failure raises CertificateError.
    """
    n = _require_square(a)
    arr = a.array
    if not (len(cert.u) == len(cert.v) == len(cert.perm) == n):
        raise CertificateError(f"certificate does not have {n} rows and columns")
    # Every |u_i| + |v_j| + a_ij within int64 keeps the cell checks exact.
    reach = max(map(abs, cert.u)) + max(map(abs, cert.v)) + int(arr.max())
    if reach > 2**63 - 1:
        raise CertificateError("certificate duals are too large to check in int64")
    u = np.array(cert.u, dtype=np.int64)
    v = np.array(cert.v, dtype=np.int64)
    if sorted(cert.perm) != list(range(n)):
        raise CertificateError("witness is not a permutation")
    perm = np.array(cert.perm, dtype=np.intp)
    # slack = a_ij - u_i - v_j, negated when minimizing, must be <= 0 on every
    # cell (checked by column on one temporary, a - u; only a failure builds
    # the slack, to name its cell) and 0 on the witness cells.
    shifted = np.subtract(arr, u[:, None])
    worst = shifted.max(axis=0) - v if maximize else v - shifted.min(axis=0)
    if worst.max() > 0:
        slack = shifted - v if maximize else v - shifted
        i, j = np.unravel_index(slack.argmax(), slack.shape)
        sense = ">=" if maximize else "<="
        raise CertificateError(
            f"dual bound fails at cell ({i}, {j}): need u_i + v_j {sense} a_ij"
        )
    loose = (arr[np.arange(n), perm] - u - v[perm]).nonzero()[0]
    if loose.size:
        i = int(loose[0])
        raise CertificateError(f"witness cell ({i}, {perm[i]}) is not tight")
    value = int(arr[np.arange(n), perm].sum())
    if sum(cert.u) + sum(cert.v) != value:
        raise CertificateError("dual sum differs from the witness sum")
    return Transversal(perm=tuple(cert.perm), value=value)


def tdet(a: IntMatrix) -> Transversal:
    """Maximum transversal sum (max over permutations p of sum a[i][p(i)])."""
    return _solve(a, maximize=True)


def tropdet(a: IntMatrix) -> Transversal:
    """Minimum transversal sum (min over permutations p of sum a[i][p(i)])."""
    return _solve(a, maximize=False)
