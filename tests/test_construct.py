import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import CIRCULANT_4_6, M6_SUM7, RUBIK_6X6
from reference import transversal_sums
from tropdet import (
    DomainError,
    check_certificate,
    construct_max_tropdet,
    construct_min_tdet,
    extremal_certificate,
    lower_bound_L,
    plan_hard_case,
    split,
    tdet,
    tropdet,
    upper_bound_U,
)
from tropdet.construct import _band


def is_hard(m, n):
    p = split(m, n)
    return p.q >= 1 and p.r >= 1 and n > 2 * p.r + p.r * p.q


class TestPlan:
    def test_square_block(self):
        plan = plan_hard_case(7, 6)
        assert (plan.l1, plan.l2, plan.a) == (2, 2, 2)
        assert plan.row_targets == (1, 1)
        assert plan.col_targets == (1, 1)

    def test_tall_block(self):
        plan = plan_hard_case(6, 5)
        assert (plan.l1, plan.l2, plan.a) == (2, 1, 0)
        assert plan.row_targets == (0, 0)
        assert plan.col_targets == (0,)

    def test_tall_block_with_mass(self):
        plan = plan_hard_case(5, 4)
        assert (plan.l1, plan.l2, plan.a) == (2, 1, 1)
        assert plan.row_targets == (0, 1)
        assert plan.col_targets == (1,)

    @pytest.mark.parametrize("m,n", [(7, 5), (9, 6), (4, 6), (10, 5)])
    def test_outside_hard_regime(self, m, n):
        with pytest.raises(DomainError):
            plan_hard_case(m, n)

    def test_marginals_consistent_across_regime(self):
        for n in range(2, 30):
            for m in range(1, 80):
                p = split(m, n)
                if p.q < 1 or p.r < 1 or n <= 2 * p.r + p.r * p.q:
                    continue
                plan = plan_hard_case(m, n)
                assert sum(plan.row_targets) == plan.a == sum(plan.col_targets)
                assert 0 <= plan.a <= p.q * plan.l1 * plan.l2
                assert all(
                    0 <= x <= p.q * plan.l2 for x in plan.row_targets
                )
                assert all(
                    0 <= x <= p.q * plan.l1 for x in plan.col_targets
                )
                assert max(plan.row_targets) - min(plan.row_targets) <= 1
                assert max(plan.col_targets) - min(plan.col_targets) <= 1


class TestBand:
    # The constructions' two forms: dj = 1 (di = -1 or -r), and di = 1 with
    # dj = -r, built transposed.
    @given(
        rows=st.integers(0, 12),
        cols=st.integers(0, 12),
        step=st.integers(-9, 9),
        transposed=st.booleans(),
        p=st.integers(1, 8),
        band=st.integers(-2, 10),
    )
    @example(rows=9, cols=3, step=-1, transposed=False, p=4, band=2)  # rows > p
    @example(rows=3, cols=9, step=-3, transposed=True, p=4, band=1)  # cols > p
    @example(rows=5, cols=5, step=-1, transposed=False, p=5, band=0)
    @example(rows=5, cols=5, step=-2, transposed=True, p=5, band=-1)
    @example(rows=5, cols=6, step=-1, transposed=False, p=5, band=5)
    @example(rows=6, cols=5, step=-2, transposed=True, p=5, band=7)
    @example(rows=4, cols=7, step=-1, transposed=False, p=1, band=1)
    @example(rows=7, cols=4, step=-3, transposed=True, p=1, band=0)
    @example(rows=0, cols=5, step=-1, transposed=False, p=3, band=1)
    @example(rows=5, cols=0, step=-1, transposed=False, p=3, band=1)
    @example(rows=0, cols=5, step=-2, transposed=True, p=3, band=1)
    @example(rows=5, cols=0, step=-2, transposed=True, p=3, band=1)
    def test_matches_modulus(self, rows, cols, step, transposed, p, band):
        di, dj = (1, step) if transposed else (step, 1)
        i = np.arange(rows)[:, None]
        j = np.arange(cols)[None, :]
        got = _band(rows, cols, di, dj, p, band)
        assert got.shape == (rows, cols) and got.dtype == bool
        assert np.array_equal(got, (dj * j + di * i) % p < band)


# One m per case tag at n = 1120, with the objective whose bound names it.
PEAK_N = 1120
PEAK_CASES = [
    (3360, "min-tdet", "R_ZERO"),
    (373, "min-tdet", "Q_ZERO"),
    (4060, "min-tdet", "HALF_UP"),
    (1520, "min-tdet", "SHARP2"),
    (2245, "min-tdet", "HARD_CASE1"),
    (2277, "min-tdet", "HARD_CASE2"),
    (5617, "max-tropdet", "LOW_R"),
    (6500, "max-tropdet", "HIGH_R"),
]


@pytest.mark.parametrize("m,objective,tag", PEAK_CASES, ids=[c[2] for c in PEAK_CASES])
def test_peak_memory_stays_near_body(m, objective, tag):
    # A construction is built, validated and kept in its one n x n int64
    # body, with no second array of that size; a bool band mask is an eighth.
    build, bound = (
        (construct_min_tdet, lower_bound_L)
        if objective == "min-tdet"
        else (construct_max_tropdet, upper_bound_U)
    )
    assert bound(m, PEAK_N).case_tag.value == tag
    tracemalloc.start()
    try:
        ds = build(m, PEAK_N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    body = ds.matrix.array.nbytes
    assert body == 8 * PEAK_N**2
    assert peak <= 1.25 * body, peak / body


@pytest.mark.parametrize("m,objective,tag", PEAK_CASES, ids=[c[2] for c in PEAK_CASES])
def test_certificate_check_stays_chunked(m, objective, tag):
    # The dual bound is checked a block of rows at a time: no temporary of
    # the body's size, only on failure the whole slack.
    maximize = objective == "min-tdet"
    build = construct_min_tdet if maximize else construct_max_tropdet
    a = build(m, PEAK_N).matrix
    cert = extremal_certificate(m, PEAK_N, objective)
    tracemalloc.start()
    try:
        check_certificate(a, cert, maximize)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.array.nbytes / 8, peak / a.array.nbytes


class TestMinTdet:
    def test_reproduces_circulant(self):
        ds = construct_min_tdet(4, 6)
        assert ds.matrix.array.tolist() == CIRCULANT_4_6.array.tolist()

    def test_reproduces_half_up_blocks(self):
        ds = construct_min_tdet(9, 6)
        assert ds.matrix.array.tolist() == RUBIK_6X6.array.tolist()

    def test_reproduces_hard_case_square(self):
        ds = construct_min_tdet(7, 6)
        assert ds.matrix.array.tolist() == M6_SUM7.array.tolist()

    def test_constant_when_r_zero(self):
        ds = construct_min_tdet(10, 5)
        assert ds.matrix.array.tolist() == [[2] * 5 for _ in range(5)]
        assert tdet(ds.matrix).value == 10

    @pytest.mark.parametrize(
        "m,n", [(7, 5), (6, 5), (5, 4), (7, 6), (9, 6), (4, 6), (1, 3)]
    )
    def test_achieves_bound(self, m, n):
        ds = construct_min_tdet(m, n)
        assert ds.m == m
        assert tdet(ds.matrix).value == lower_bound_L(m, n).value

    def test_hard_case_entry_shape(self):
        for m, n in [(6, 5), (5, 4), (7, 6), (8, 7), (7, 11), (13, 11)]:
            p = split(m, n)
            if p.q < 1 or p.r < 1 or n <= 2 * p.r + p.r * p.q:
                continue
            plan = plan_hard_case(m, n)
            ds = construct_min_tdet(m, n)
            grid = ds.matrix.array.tolist()
            for i in range(plan.l1):
                for j in range(plan.l2):
                    assert grid[i][j] <= p.q
            for i in range(plan.l1, n):
                for j in range(plan.l2, n):
                    assert grid[i][j] == p.q
            assert all(x <= p.q + 1 for row in grid for x in row)

    def test_small_sweep(self):
        for n in range(2, 13):
            for m in range(1, 26):
                ds = construct_min_tdet(m, n)
                assert tdet(ds.matrix).value == lower_bound_L(m, n).value

    def test_hard_case_block_is_dealt(self):
        # the dealt block meets the plan's marginals exactly and is as
        # flat as they allow: two adjacent values per row and per column
        cases = [
            (m, n) for n in range(2, 30) for m in range(1, 80) if is_hard(m, n)
        ]
        for m, n in cases + [(3750, 3000), (15002, 3000)]:
            plan = plan_hard_case(m, n)
            ds = construct_min_tdet(m, n)
            block = ds.matrix.array[: plan.l1, : plan.l2]
            assert block.sum(axis=1).tolist() == list(plan.row_targets)
            assert block.sum(axis=0).tolist() == list(plan.col_targets)
            assert (block.max(axis=1) - block.min(axis=1) <= 1).all()
            assert (block.max(axis=0) - block.min(axis=0) <= 1).all()
            if n <= 7:
                best = transversal_sums(ds.matrix.array).max()
                assert best == lower_bound_L(m, n).value

    @pytest.mark.parametrize("m,n", [(3750, 3000), (15002, 3000)])
    def test_sharpness_premises_at_scale(self, m, n):
        # construct_min_tdet's docstring derives tdet <= q*n + l1 + l2 from
        # these block shapes alone
        q = split(m, n).q
        plan = plan_hard_case(m, n)
        l1, l2 = plan.l1, plan.l2
        a = construct_min_tdet(m, n).matrix.array
        assert (a[:l1, :l2] <= q).all()
        assert (a[:l1, l2:] <= q + 1).all()
        assert (a[l1:, :l2] <= q + 1).all()
        assert (a[l1:, l2:] == q).all()
        assert q * n + l1 + l2 == lower_bound_L(m, n).value


class TestMaxTropdet:
    def test_small_case_against_direct_enumeration(self):
        ds = construct_max_tropdet(5, 3)
        assert transversal_sums(ds.matrix.array).min() == 4
        assert tropdet(ds.matrix).value == upper_bound_U(5, 3).value

    def test_below_n_permutations(self):
        ds = construct_max_tropdet(2, 3)
        assert tropdet(ds.matrix).value == 1
        assert transversal_sums(ds.matrix.array).min() == 1

    def test_constant_when_r_zero(self):
        ds = construct_max_tropdet(8, 4)
        assert ds.matrix.array.tolist() == [[2] * 4 for _ in range(4)]
        assert tropdet(ds.matrix).value == 8

    @pytest.mark.parametrize("m,n", [(7, 5), (5, 3), (9, 6), (1, 4), (11, 4)])
    def test_achieves_bound(self, m, n):
        ds = construct_max_tropdet(m, n)
        assert ds.m == m
        assert tropdet(ds.matrix).value == upper_bound_U(m, n).value

    def test_small_sweep(self):
        for n in range(2, 13):
            for m in range(1, 26):
                ds = construct_max_tropdet(m, n)
                assert tropdet(ds.matrix).value == upper_bound_U(m, n).value


OBJECTIVES = [
    ("min-tdet", construct_min_tdet, lower_bound_L, True),
    ("max-tropdet", construct_max_tropdet, upper_bound_U, False),
]


class TestCertificates:
    def test_whole_grid_certifies(self):
        # every construction with n <= 40, m <= 300 is proved optimal in
        # exact integers by its closed-form duals and witness
        for n in range(1, 41):
            for m in range(1, 301):
                for objective, build, bound, maximize in OBJECTIVES:
                    cert = extremal_certificate(m, n, objective)
                    got = check_certificate(build(m, n).matrix, cert, maximize)
                    assert got.value == bound(m, n).value, (m, n, objective)

    @pytest.mark.parametrize(
        "objective,build,bound,maximize", OBJECTIVES, ids=[r[0] for r in OBJECTIVES]
    )
    @pytest.mark.parametrize(
        "m,n", [(3750, 3000), (4500, 3000), (10**17 + 3, 5)]
    )
    def test_certifies_at_scale(self, m, n, objective, build, bound, maximize):
        # n = 3000, and entries past float64's exact range
        cert = extremal_certificate(m, n, objective)
        got = check_certificate(build(m, n).matrix, cert, maximize)
        assert got.value == bound(m, n).value
