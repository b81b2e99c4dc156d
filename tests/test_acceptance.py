"""End-to-end acceptance checks.

Every check prints a single "ACCEPTANCE nn PASS/FAIL" line; run with
``pytest -s tests/test_acceptance.py`` to see them as they complete.  The
checks cross-validate the closed-form bounds, the constructions, and the
solvers against independent brute-force routes at small sizes.
"""

import functools
import math
import time

import numpy as np

from reference import low_block_sum, transversal_sums
from tropdet import (
    CaseTag,
    IntMatrix,
    brute_L,
    brute_U,
    check_certificate,
    construct_max_tropdet,
    construct_min_tdet,
    count_D,
    extremal_certificate,
    has_transversal_above,
    largest_low_block,
    lower_bound_L,
    max_matching_above,
    random_ds,
    rubik_answer,
    smallest_l,
    split,
    tdet,
    tropdet,
    upper_bound_U,
    validate_ds,
)

ORACLE_GRID = (
    [(m, n) for n in (2, 3, 4) for m in range(1, 9)]
    + [(m, 5) for m in range(1, 5)]
    + [(m, n) for n in (6, 7) for m in (1, 2)]
    + [(5, 5), (3, 6)]
)

SWEEP_NS = range(2, 31)
SWEEP_MS = range(1, 201)

HARD_TAGS = (CaseTag.HARD_CASE1, CaseTag.HARD_CASE2)


def criterion(num, summary):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                detail = fn()
            except BaseException:
                print(f"\nACCEPTANCE {num:02d} FAIL: {summary}")
                raise
            tail = f" ({detail})" if detail else ""
            print(f"\nACCEPTANCE {num:02d} PASS: {summary}{tail}")

        return wrapper

    return decorate


@functools.lru_cache(maxsize=1)
def sharpness_sweep():
    """(m, n) -> (L result, achieved tdet, U result, achieved tropdet)."""
    out = {}
    for n in SWEEP_NS:
        for m in SWEEP_MS:
            low = lower_bound_L(m, n)
            high = upper_bound_U(m, n)
            mn_min = construct_min_tdet(m, n)
            mn_max = construct_max_tropdet(m, n)
            out[(m, n)] = (
                low,
                tdet(mn_min.matrix).value,
                high,
                tropdet(mn_max.matrix).value,
            )
    return out


@criterion(1, "golden bound values, each under 1 ms")
def test_criterion_01():
    cases = [
        (lambda: lower_bound_L(7, 5).value, 9, "L(7,5)"),
        (lambda: lower_bound_L(7, 6).value, 10, "L(7,6)"),
        (lambda: lower_bound_L(9, 6).value, 12, "L(9,6)"),
        (lambda: rubik_answer(6, 9), 42, "rubik(6,9)"),
        (lambda: lower_bound_L(4, 6).value, 6, "L(4,6)"),
    ]
    worst = 0.0
    for call, expected, label in cases:
        assert call() == expected, label  # warm-up and exactness
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            call()
            best = min(best, time.perf_counter() - start)
        assert best < 1e-3, f"{label} took {best * 1e3:.3f} ms"
        worst = max(worst, best)
    return f"5 values exact, slowest call {worst * 1e6:.0f} us"


@criterion(2, "exhaustive minimum of tdet equals the closed form")
def test_criterion_02():
    start = time.perf_counter()
    total = 0
    for m, n in ORACLE_GRID:
        stats = brute_L(m, n)
        expected = lower_bound_L(m, n).value
        assert stats.extremum == expected, (m, n, stats.extremum, expected)
        total += stats.count
    return (
        f"{len(ORACLE_GRID)} cells, {total} matrices, "
        f"{time.perf_counter() - start:.1f}s"
    )


@criterion(3, "exhaustive maximum of tropdet equals the closed form")
def test_criterion_03():
    start = time.perf_counter()
    total = 0
    for m, n in ORACLE_GRID:
        stats = brute_U(m, n)
        expected = upper_bound_U(m, n).value
        assert stats.extremum == expected, (m, n, stats.extremum, expected)
        total += stats.count
    return (
        f"{len(ORACLE_GRID)} cells, {total} matrices, "
        f"{time.perf_counter() - start:.1f}s"
    )


@criterion(4, "constructions are members and meet their bounds exactly")
def test_criterion_04():
    start = time.perf_counter()
    sweep = sharpness_sweep()
    for (m, n), (low, got_min, high, got_max) in sweep.items():
        assert got_min == low.value, ("min", m, n, got_min, low.value)
        assert got_max == high.value, ("max", m, n, got_max, high.value)
        # Each construction also proves its value with closed-form duals.
        for build, objective, maximize, bound in (
            (construct_min_tdet, "min-tdet", True, low),
            (construct_max_tropdet, "max-tropdet", False, high),
        ):
            cert = extremal_certificate(m, n, objective)
            proved = check_certificate(build(m, n).matrix, cert, maximize)
            assert proved.value == bound.value, (objective, m, n, proved.value)
    # membership is enforced by construct_* returning validated members;
    # spot-check revalidation on a diagonal of the sweep anyway
    for n in SWEEP_NS:
        ds = construct_min_tdet(6 * n + 1, n)
        revalidated = validate_ds(IntMatrix(n, n, ds.matrix.entries))
        assert revalidated.m == 6 * n + 1
    pairs = len(sweep)
    return f"{pairs} (m, n) pairs, {time.perf_counter() - start:.1f}s"


@criterion(5, "minimum of tdet never decreases as m grows")
def test_criterion_05():
    sweep = sharpness_sweep()
    checked = 0
    for n in SWEEP_NS:
        for m in SWEEP_MS:
            if (m + 1, n) not in sweep:
                continue
            assert sweep[(m, n)][0].value <= sweep[(m + 1, n)][0].value, (m, n)
            checked += 1
    return f"{checked} consecutive pairs"


@criterion(6, "assignment solver matches the permutation oracle")
def test_criterion_06():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        a = IntMatrix(n, n, rng.integers(0, 21, size=(n, n)))
        sums = transversal_sums(a.array)
        assert tdet(a).value == sums.max()
        assert tropdet(a).value == sums.min()
    return "200 matrices, n <= 7, entries in [0, 20]"


@criterion(7, "largest low block obeys the matching identity and Hall test")
def test_criterion_07():
    rng = np.random.default_rng(4096)
    densities = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    for trial in range(200):
        n = int(rng.integers(1, 11))
        density = densities[trial % len(densities)]
        raw = rng.integers(1, 6, size=(n, n))
        keep = rng.random(size=(n, n)) >= density
        a = IntMatrix(n, n, raw * keep)
        size, _ = max_matching_above(a, 0)
        block = largest_low_block(a, 0)
        assert block.dimension_sum == 2 * n - size, (trial, n)
        assert block.dimension_sum == low_block_sum(a.array, 0), (trial, n)
        assert has_transversal_above(a, 0)[0] == (block.dimension_sum <= n)
    return "200 matrices, n <= 10, zero density 0.1 through 0.9"


@criterion(8, "every random member has an all-positive transversal")
def test_criterion_08():
    rng = np.random.default_rng(31337)
    for _ in range(500):
        m = int(rng.integers(1, 21))
        n = int(rng.integers(2, 13))
        ds = random_ds(m, n, seed=int(rng.integers(0, 2**32)))
        assert has_transversal_above(ds.matrix, 0)[0], (m, n)
    return "500 samples, m <= 20, n <= 12"


@criterion(9, "enumeration counts agree with closed-form counts")
def test_criterion_09():
    for n in range(1, 6):
        assert count_D(1, n) == math.factorial(n), n
    for m in range(1, 11):
        assert count_D(m, 2) == m + 1, m
    assert count_D(2, 2) == 3
    return "n! at m = 1 for n <= 5; m + 1 at n = 2 for m <= 10"


@criterion(10, "hard-case l is minimal and the first bound implies the second")
def test_criterion_10():
    sweep = sharpness_sweep()
    hard = 0
    for (m, n), (low, _, _, _) in sweep.items():
        if low.case_tag not in HARD_TAGS:
            continue
        hard += 1
        p = split(m, n)
        q, r = p.q, p.r
        l = low.l
        assert l is not None and l >= 1

        def ineq1(x):
            return x * x * q + 2 * x * r - r * n >= 0

        def ineq2(x):
            return x * x * q + x * (2 * r + q) + r - r * n >= 0

        assert not ineq1(l - 1) and not ineq2(l - 1), (m, n)
        for scanned in range(l + 1):
            if ineq1(scanned):
                assert ineq2(scanned), (m, n, scanned)
        assert low.eqn2_holds
        assert low.eqn1_holds == ineq1(l)
        recomputed = smallest_l(q, r, n)
        assert recomputed == (l, low.eqn1_holds, low.eqn2_holds)
    assert hard > 0
    return f"{hard} hard-case pairs in the sweep"
