"""Sharp bounds on transversal extremes over D(m, n).

Write m = q*n + r with 0 <= r < n.  Over all of D(m, n):

  min of tdet   =  m                  if r = 0            (R_ZERO)
                   n                  if q = 0            (Q_ZERO)
                   n*(q + 1)          if 2r >= n          (HALF_UP)
                   q*n + 2r           if n <= 2r + r*q    (SHARP2)
                   q*n + 2l   or  q*n + 2l + 1            (HARD_CASE2 / 1)

  max of tropdet = q*n                if 2r < n           (LOW_R)
                   q*n + 2r - n       if 2r >= n          (HIGH_R)

The hard case (n > 2r + r*q with q, r >= 1) is settled by the smallest
l >= 0 satisfying either quadratic

      ineq1:  l*l*q + 2*l*r             - r*n  >= 0
      ineq2:  l*l*q + l*(2r + q) + r    - r*n  >= 0

ineq1 implies ineq2 (their difference is l*q + r > 0), so at the minimal l
either both hold (value q*n + 2l) or only ineq2 does (value q*n + 2l + 1).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError
from .matrices import SplitParams, split

__all__ = [
    "CaseTag",
    "BoundsResult",
    "smallest_l",
    "lower_bound_L",
    "upper_bound_U",
    "rubik_answer",
]


class CaseTag(str, enum.Enum):
    R_ZERO = "R_ZERO"
    Q_ZERO = "Q_ZERO"
    HALF_UP = "HALF_UP"
    SHARP2 = "SHARP2"
    HARD_CASE1 = "HARD_CASE1"
    HARD_CASE2 = "HARD_CASE2"
    LOW_R = "LOW_R"
    HIGH_R = "HIGH_R"


@dataclass(frozen=True)
class BoundsResult:
    """A sharp bound over D(m, n) and how it was reached.

    value is the bound, case_tag the formula that gave it and params the
    split m = q*n + r.  l, eqn1_holds and eqn2_holds are set only in the
    hard case (HARD_CASE1, HARD_CASE2) and are None outside it: l is the
    smallest l >= 0 satisfying ineq2, and eqn1_holds and eqn2_holds say
    whether ineq1 and ineq2 hold there.  eqn2_holds is True whenever l is
    set, since ineq1 implies ineq2 and l is the least l that satisfies ineq2.
    """

    value: int
    case_tag: CaseTag
    params: SplitParams
    l: int | None = None
    eqn1_holds: bool | None = None
    eqn2_holds: bool | None = None


def _ineq1(l: int, q: int, r: int, n: int) -> bool:
    return l * l * q + 2 * l * r - r * n >= 0


def _ineq2(l: int, q: int, r: int, n: int) -> bool:
    return l * l * q + l * (2 * r + q) + r - r * n >= 0


def smallest_l(q: int, r: int, n: int) -> tuple[int, bool, bool]:
    """Smallest l >= 0 satisfying ineq1 or ineq2, with which ones hold.

    Only defined in the hard regime q >= 1, r >= 1, n > 2r + r*q.  Since
    ineq1 implies ineq2, l is the least integer at or above the positive
    root of ineq2's quadratic.  math.isqrt rounds that root down, so the
    estimate never overshoots and a short exact step up finishes it.
    """
    if q < 1 or r < 1:
        raise DomainError(f"need q >= 1 and r >= 1, got q={q} r={r}")
    if n <= 2 * r + r * q:
        raise DomainError(
            f"not in the hard regime: n={n} <= 2r + r*q = {2 * r + r * q}"
        )
    b = 2 * r + q
    l = (math.isqrt(b * b + 4 * q * r * (n - 1)) - b) // (2 * q)
    while not _ineq2(l, q, r, n):
        l += 1
    return l, _ineq1(l, q, r, n), True


def lower_bound_L(m: int, n: int) -> BoundsResult:
    """Sharp minimum of tdet over D(m, n), with the case that produced it."""
    p = split(m, n)
    q, r = p.q, p.r
    if r == 0:
        return BoundsResult(m, CaseTag.R_ZERO, p)
    if q == 0:
        return BoundsResult(n, CaseTag.Q_ZERO, p)
    if 2 * r >= n:
        return BoundsResult(n * (q + 1), CaseTag.HALF_UP, p)
    if n <= 2 * r + r * q:
        return BoundsResult(q * n + 2 * r, CaseTag.SHARP2, p)
    l, e1, e2 = smallest_l(q, r, n)
    if e1:
        return BoundsResult(q * n + 2 * l, CaseTag.HARD_CASE2, p, l, e1, e2)
    return BoundsResult(q * n + 2 * l + 1, CaseTag.HARD_CASE1, p, l, e1, e2)


def upper_bound_U(m: int, n: int) -> BoundsResult:
    """Sharp maximum of tropdet over D(m, n).

    The two formulas agree at the boundary 2r = n (both give q*n).
    """
    p = split(m, n)
    q, r = p.q, p.r
    if 2 * r < n:
        return BoundsResult(q * n, CaseTag.LOW_R, p)
    return BoundsResult(q * n + 2 * r - n, CaseTag.HIGH_R, p)


def rubik_answer(colors: int, stickers_per_face: int) -> int:
    """Worst-case number of stickers to swap so a cube-like puzzle with
    ``colors`` faces of ``stickers_per_face`` stickers shows one color per
    face.

    Sticker counts per (color, face) form a member of D(m, n) with
    n = colors and m = stickers_per_face; keeping a best transversal fixed
    leaves m*n - L(m, n) stickers to replace.
    """
    n, m = colors, stickers_per_face
    return m * n - lower_bound_L(m, n).value
