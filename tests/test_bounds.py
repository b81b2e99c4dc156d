import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from tropdet import (
    CaseTag,
    DomainError,
    lower_bound_L,
    rubik_answer,
    smallest_l,
    upper_bound_U,
)


def ineq1(l, q, r, n):
    return l * l * q + 2 * l * r - r * n >= 0


def ineq2(l, q, r, n):
    return l * l * q + l * (2 * r + q) + r - r * n >= 0


def scan_l(q, r, n):
    """Smallest l by a plain upward scan."""
    l = 0
    while not (ineq1(l, q, r, n) or ineq2(l, q, r, n)):
        l += 1
    return l, ineq1(l, q, r, n), ineq2(l, q, r, n)


class TestSmallestL:
    def test_known_values(self):
        assert smallest_l(1, 1, 6) == (2, True, True)
        assert smallest_l(1, 1, 5) == (1, False, True)
        assert smallest_l(1, 1, 4) == (1, False, True)
        assert smallest_l(1, 2, 10) == (3, True, True)
        assert smallest_l(3, 1, 8) == (1, False, True)

    def test_rejects_degenerate_q_or_r(self):
        with pytest.raises(DomainError):
            smallest_l(0, 1, 9)
        with pytest.raises(DomainError):
            smallest_l(1, 0, 9)

    def test_rejects_outside_hard_regime(self):
        # n = 6, q = 1, r = 2 gives 2r + rq = 6, not strictly below n
        with pytest.raises(DomainError):
            smallest_l(1, 2, 6)

    def test_minimality_and_implication(self):
        for q in range(1, 6):
            for r in range(1, 6):
                for n in range(2 * r + r * q + 1, 40):
                    l, e1, e2 = smallest_l(q, r, n)
                    assert e2, "the weaker inequality must hold at l"
                    assert e1 == ineq1(l, q, r, n)
                    for smaller in range(l):
                        assert not ineq1(smaller, q, r, n)
                        assert not ineq2(smaller, q, r, n)
                    if e1:
                        # strict implication: ineq1 never holds alone
                        assert ineq2(l, q, r, n)

    @given(st.integers(1, 60), st.integers(1, 60), st.integers(3, 10**5))
    def test_matches_scan(self, q, r, n):
        assume(n > 2 * r + r * q)
        assert smallest_l(q, r, n) == scan_l(q, r, n)

    @pytest.mark.parametrize("q,r", [(1, 1), (1, 999), (7, 3), (10**6, 10**5)])
    def test_huge_n(self, q, r):
        n = 10**18
        l, e1, e2 = smallest_l(q, r, n)
        assert e2 and e1 == ineq1(l, q, r, n)
        assert not ineq1(l - 1, q, r, n)
        assert not ineq2(l - 1, q, r, n)

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(2, 60))
    def test_implication_everywhere(self, q, r, n):
        for l in range(0, n):
            if ineq1(l, q, r, n):
                assert ineq2(l, q, r, n)


class TestLowerBound:
    @pytest.mark.parametrize(
        "m,n,value,tag",
        [
            (10, 5, 10, CaseTag.R_ZERO),
            (3, 3, 3, CaseTag.R_ZERO),
            (4, 6, 6, CaseTag.Q_ZERO),
            (1, 7, 7, CaseTag.Q_ZERO),
            (9, 6, 12, CaseTag.HALF_UP),
            (5, 3, 6, CaseTag.HALF_UP),
            (7, 5, 9, CaseTag.SHARP2),
            (7, 6, 10, CaseTag.HARD_CASE2),
            (6, 5, 8, CaseTag.HARD_CASE1),
            (5, 4, 7, CaseTag.HARD_CASE1),
        ],
    )
    def test_known_values(self, m, n, value, tag):
        result = lower_bound_L(m, n)
        assert result.value == value
        assert result.case_tag == tag

    def test_hard_case_carries_l(self):
        result = lower_bound_L(7, 6)
        assert result.l == 2
        assert result.eqn1_holds and result.eqn2_holds
        result = lower_bound_L(6, 5)
        assert result.l == 1
        assert not result.eqn1_holds and result.eqn2_holds

    def test_easy_cases_leave_l_unset(self):
        assert lower_bound_L(10, 5).l is None
        assert lower_bound_L(4, 6).l is None

    def test_value_matches_case_formula(self):
        for n in range(2, 25):
            for m in range(1, 60):
                result = lower_bound_L(m, n)
                q, r = result.params.q, result.params.r
                expected = {
                    CaseTag.R_ZERO: m,
                    CaseTag.Q_ZERO: n,
                    CaseTag.HALF_UP: n * (q + 1),
                    CaseTag.SHARP2: q * n + 2 * r,
                }
                if result.case_tag in expected:
                    assert result.value == expected[result.case_tag]
                elif result.case_tag == CaseTag.HARD_CASE2:
                    assert result.value == q * n + 2 * result.l
                else:
                    assert result.case_tag == CaseTag.HARD_CASE1
                    assert result.value == q * n + 2 * result.l + 1

    def test_at_least_m(self):
        for n in range(2, 20):
            for m in range(1, 50):
                assert lower_bound_L(m, n).value >= m

    @given(st.integers(1, 300), st.integers(2, 40))
    def test_monotone_in_m(self, m, n):
        assert lower_bound_L(m, n).value <= lower_bound_L(m + 1, n).value

    def test_domain(self):
        with pytest.raises(DomainError):
            lower_bound_L(0, 3)
        with pytest.raises(DomainError):
            lower_bound_L(3, 0)


class TestUpperBound:
    @pytest.mark.parametrize(
        "m,n,value,tag",
        [
            (7, 5, 5, CaseTag.LOW_R),
            (4, 4, 4, CaseTag.LOW_R),
            (1, 4, 0, CaseTag.LOW_R),
            (5, 3, 4, CaseTag.HIGH_R),
            (9, 6, 6, CaseTag.HIGH_R),
            (2, 3, 1, CaseTag.HIGH_R),
        ],
    )
    def test_known_values(self, m, n, value, tag):
        result = upper_bound_U(m, n)
        assert result.value == value
        assert result.case_tag == tag

    def test_boundary_consistency(self):
        # at 2r = n both formulas give q*n
        for q in range(0, 6):
            for half in range(1, 12):
                n = 2 * half
                m = q * n + half
                if m < 1:
                    continue
                result = upper_bound_U(m, n)
                assert result.value == q * n

    def test_at_most_m(self):
        for n in range(2, 20):
            for m in range(1, 50):
                assert upper_bound_U(m, n).value <= m

    @given(st.integers(1, 300), st.integers(2, 40))
    def test_never_exceeds_lower_bound(self, m, n):
        assert upper_bound_U(m, n).value <= lower_bound_L(m, n).value


class TestRubik:
    def test_classic_cube(self):
        assert rubik_answer(6, 9) == 42

    def test_pocket_cube(self):
        assert rubik_answer(6, 4) == 18

    def test_single_color(self):
        assert rubik_answer(1, 9) == 0

    def test_consistency_with_bound(self):
        for colors in range(1, 10):
            for stickers in range(1, 30):
                answer = rubik_answer(colors, stickers)
                assert (
                    answer
                    == stickers * colors
                    - lower_bound_L(stickers, colors).value
                )
                assert answer >= 0
