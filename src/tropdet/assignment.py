"""Exact transversal optimization.

tdet maximizes, and tropdet minimizes, the sum of one entry per row and
column (the assignment problem on the entry matrix).  Both return a witness
permutation alongside the value; the value is the contract, the witness is
whichever optimum the solver lands on.

From n = EXTREME_N on, tropdet first tries the cells equal to the min:
every transversal sum is at least n * min, so a transversal of them is
optimal, exact without floats or scipy.  Against LSA on members, the try
was slower below n = 96 and 1.4-6 times faster from n = 128.  tdet skips
it (the max cells of members miss most rows); other input goes to LSA.

check_certificate proves such a value without solving: duals u, v that
bound every cell (u_i + v_j >= a_ij when maximizing, <= when minimizing)
and a permutation on cells where the bound is tight give a transversal
sum equal to sum(u) + sum(v), which no permutation can beat (Kuhn 1955,
complementary slackness).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .blocks import _match_rows
from .errors import CertificateError, DomainError
from .matrices import _CHUNK, IntMatrix, _square

__all__ = [
    "Certificate",
    "Transversal",
    "check_certificate",
    "tdet",
    "tropdet",
]

# float64 holds every integer below 2**53 exactly; the solve runs in float64.
FLOAT_EXACT = 2**53
EXTREME_N = 128  # the least n whose min cells tropdet tries first


@dataclass(frozen=True)
class Transversal:
    """A permutation witness and its entry sum."""

    perm: tuple[int, ...]
    value: int


def _solve(a: IntMatrix, maximize: bool) -> Transversal:
    n = _square(a)
    arr = a.array
    hi = int(arr.max())
    if n * hi >= FLOAT_EXACT:
        lo = int(arr.min())
        if n * (hi - lo) >= FLOAT_EXACT:
            raise DomainError(
                f"entry range {hi - lo} with n = {n} is past the "
                f"exact float64 solve: need n * (max - min) < 2**53"
            )
    if n >= EXTREME_N and not maximize:
        lo = int(arr.min())
        mask = arr == lo
        if mask.any(axis=1).all() and mask.any(axis=0).all():
            match = _match_rows(mask)[0]
            if min(match) >= 0:
                return Transversal(perm=tuple(match), value=n * lo)
    # scipy.optimize is most of the package's import time and only the
    # float solve needs it.
    from scipy.optimize import linear_sum_assignment

    if n * hi >= FLOAT_EXACT:
        # Shifting every entry by one constant shifts every transversal by
        # n times it, so the optimum stays put.  The subtraction runs in
        # int64 and only its result is cast: casting first would round.
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
    n = _square(a)
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
    # cell (checked by column on a - u, in blocks of rows; only a failure
    # builds the whole slack, to name its cell) and 0 on the witness cells.
    best, step = (np.maximum if maximize else np.minimum), max(1, _CHUNK // n)
    blocks = (arr[i : i + step] - u[i : i + step, None] for i in range(0, n, step))
    col_best = reduce(best, map(best.reduce, blocks))
    if (col_best - v if maximize else v - col_best).max() > 0:
        shifted = arr - u[:, None]
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
