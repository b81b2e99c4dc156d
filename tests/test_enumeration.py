import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropdet import (
    BudgetExceededError,
    DomainError,
    IntMatrix,
    brute_assignment,
    brute_L,
    brute_U,
    count_D,
    enumerate_D,
    lower_bound_L,
    random_ds,
    tdet,
    tropdet,
    upper_bound_U,
    validate_ds,
)
from tropdet.enumerate_ds import _extend, _prefix_bound, _subsets


def collect(m, n, budget=10**6):
    seen = []
    count = enumerate_D(m, n, seen.append, budget=budget)
    assert count == len(seen)
    return seen


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def toy_members(m, n):
    """Independent reference enumerator: product of row compositions,
    filtered by column sums.  Yields nested lists in row-major lex order."""
    for rows in itertools.product(compositions(m, n), repeat=n):
        if all(sum(col) == m for col in zip(*rows)):
            yield [list(r) for r in rows]


class TestOrdering:
    def test_two_by_two_exact(self):
        got = [a.to_nested() for a in collect(2, 2)]
        assert got == [
            [[0, 2], [2, 0]],
            [[1, 1], [1, 1]],
            [[2, 0], [0, 2]],
        ]

    def test_permutation_matrices(self):
        got = [a.to_nested() for a in collect(1, 3)]
        assert len(got) == 6
        for grid in got:
            assert sorted(sum(row) for row in grid) == [1, 1, 1]
        assert got[0] == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
        assert got[-1] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_single_column(self):
        got = [a.to_nested() for a in collect(5, 1)]
        assert got == [[[5]]]

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (4, 2)])
    def test_strictly_ascending_no_duplicates(self, m, n):
        flats = [a.entries for a in collect(m, n)]
        assert all(x < y for x, y in zip(flats, flats[1:]))

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (1, 4)])
    def test_matches_reference_enumerator(self, m, n):
        got = [a.to_nested() for a in collect(m, n)]
        assert got == list(toy_members(m, n))

    def test_every_member_is_valid(self):
        for a in collect(3, 3):
            ds = validate_ds(a)
            assert ds.m == 3


class TestCounting:
    @pytest.mark.parametrize(
        "m,n,expected",
        [
            (2, 2, 3),
            (1, 4, 24),
            (7, 2, 8),
            (2, 3, 21),
            (3, 3, 55),
            (1, 1, 1),
        ],
    )
    def test_known_counts(self, m, n, expected):
        assert count_D(m, n) == expected

    def test_counts_match_reference(self):
        for m in range(1, 4):
            for n in range(1, 4):
                assert count_D(m, n) == len(list(toy_members(m, n)))

    def test_domain(self):
        with pytest.raises(DomainError):
            count_D(0, 3)

    def test_macmahon_three_by_three(self):
        for m in range(1, 31):
            assert count_D(m, 3) == math.comb(m + 2, 2) + 3 * math.comb(m + 3, 4)

    # OEIS A000681: n x n matrices of nonnegative integers, line sums 2.
    @pytest.mark.parametrize(
        "n,expected",
        enumerate([1, 3, 21, 282, 6210, 202410, 9135630], start=1),
    )
    def test_line_sums_two(self, n, expected):
        assert count_D(2, n) == expected

    # OEIS A001496: 4 x 4 matrices of nonnegative integers, line sums m.
    @pytest.mark.parametrize(
        "m,expected",
        enumerate([24, 282, 2008, 10147, 40176, 132724, 381424, 981541], start=1),
    )
    def test_four_by_four(self, m, expected):
        assert count_D(m, 4) == expected


# |D(m, n)| recorded with the row-orbit walk (one row-sorted member per
# orbit, weighted by the orbit size), so these do not rest on the counting
# DP they check.
PINNED_COUNTS = {
    (5, 5): 22_069_251,
    (3, 6): 20_933_840,
    (2, 8): 545_007_960,
    (6, 5): 164_176_640,
    (7, 5): 976_395_820,
    (8, 5): 4_855_258_305,
    (4, 6): 1_047_649_905,
}


@pytest.mark.parametrize("m,n", sorted(PINNED_COUNTS))
def test_pinned_counts(m, n):
    assert count_D(m, n, budget=10**10) == PINNED_COUNTS[(m, n)]


class TestBudget:
    def test_upfront_refusal(self):
        # the first-row pool alone exceeds the budget, so no work starts
        with pytest.raises(BudgetExceededError) as err:
            count_D(10, 5, budget=100)
        assert err.value.visited == 0
        assert err.value.budget == 100

    def test_midstream_stop(self):
        # pool of 6 first rows passes the pre-check, then the walk trips
        with pytest.raises(BudgetExceededError) as err:
            count_D(2, 3, budget=10)
        assert err.value.visited == 10
        assert err.value.budget == 10

    def test_budget_exactly_sufficient(self):
        assert count_D(2, 3, budget=21) == 21

    def test_nonpositive_budget(self):
        with pytest.raises(BudgetExceededError):
            count_D(1, 2, budget=0)

    # |D(3, 4)| = 2008 members in far fewer row orbits: the budget counts
    # members all the same.
    @pytest.mark.parametrize("walk", [count_D, brute_L])
    def test_budget_counts_members_not_orbits(self, walk):
        with pytest.raises(BudgetExceededError) as err:
            walk(3, 4, budget=2007)
        assert err.value.visited == 2007
        assert err.value.budget == 2007

    def test_member_budget_exactly_sufficient(self):
        assert count_D(3, 4, budget=2008) == 2008
        assert brute_L(3, 4, budget=2008).count == 2008

    def test_brute_U_budget_counts_members(self):
        with pytest.raises(BudgetExceededError) as err:
            brute_U(3, 4, budget=2007)
        assert err.value.visited == 2007
        assert err.value.budget == 2007
        assert brute_U(3, 4, budget=2008).count == 2008


class TestBruteExtremes:
    def test_min_max_transversal_small(self):
        stats = brute_L(2, 3)
        assert stats.extremum == 3
        assert stats.count == 21
        assert tdet(stats.witness.matrix).value == 3

    def test_min_witness_is_first_attaining(self):
        stats = brute_L(2, 3)
        for grid in toy_members(2, 3):
            value = max(
                sum(grid[i][p[i]] for i in range(3))
                for p in itertools.permutations(range(3))
            )
            if value == 3:
                assert stats.witness.matrix.to_nested() == grid
                break

    def test_hard_case_value(self):
        assert brute_L(5, 4).extremum == 7

    def test_max_min_transversal_small(self):
        stats = brute_U(5, 3)
        assert stats.extremum == 4
        assert tropdet(stats.witness.matrix).value == 4

    def test_small_m_below_n(self):
        # q = 0 yet 2r >= n, so the max sits at q*n + 2r - n = 1, not 0
        stats = brute_U(2, 3)
        assert stats.extremum == 1
        assert stats.count == 21

    def test_witnesses_are_members(self):
        for stats in (brute_L(3, 3), brute_U(3, 3)):
            assert stats.witness.m == 3
            assert stats.witness.matrix.rows == 3

    def test_budget_propagates(self):
        with pytest.raises(BudgetExceededError):
            brute_L(2, 3, budget=5)


def unreduced_extremes(m, n):
    """|D(m, n)| and, for tdet's minimum and tropdet's maximum, the value
    and the first member attaining it, from every member in enumerate_D's
    order and every permutation from itertools."""
    members = np.array([a.entries for a in collect(m, n)], dtype=np.int64)
    cells = np.array(
        [[i * n + p[i] for i in range(n)] for p in itertools.permutations(range(n))]
    )
    sums = members[:, cells].sum(axis=2)
    tdets, tropdets = sums.max(axis=1), sums.min(axis=1)
    low, high = int(tdets.argmin()), int(tropdets.argmax())
    return (
        len(members),
        (int(tdets[low]), tuple(members[low].tolist())),
        (int(tropdets[high]), tuple(members[high].tolist())),
    )


# The acceptance oracle grid's cells with n <= 3, its n = 4 cells with
# m <= 4, and (2, 5).
UNREDUCED_CELLS = (
    [(m, n) for n in (2, 3) for m in range(1, 9)]
    + [(m, 4) for m in range(1, 5)]
    + [(2, 5)]
)


class TestRowOrbitWalk:
    """count_D, brute_L and brute_U against the unreduced walk, which visits
    every member of D(m, n): the same count, extremes and first witnesses."""

    @pytest.mark.parametrize("m,n", UNREDUCED_CELLS)
    def test_matches_unreduced_walk(self, m, n):
        count, (low, low_witness), (high, high_witness) = unreduced_extremes(m, n)
        assert count_D(m, n) == count
        for stats, value, witness in (
            (brute_L(m, n), low, low_witness),
            (brute_U(m, n), high, high_witness),
        ):
            assert stats.count == count
            assert stats.extremum == value
            assert stats.witness.matrix.entries == witness


class TestWiderGrid:
    """Cells past the default budget: the searches still agree with the
    closed forms and with the pinned counts."""

    @pytest.mark.parametrize("m,n", [(6, 5), (7, 5), (8, 5), (4, 6)])
    def test_extremes_match_closed_forms(self, m, n):
        low = brute_L(m, n, budget=10**10)
        high = brute_U(m, n, budget=10**10)
        assert low.extremum == lower_bound_L(m, n).value
        assert high.extremum == upper_bound_U(m, n).value
        assert low.count == high.count == PINNED_COUNTS[(m, n)]


class TestPrefixBound:
    """The branch-and-bound's bound, after every prefix of rows of a
    member, never passes the member's own tdet or tropdet, and is exact
    once one row is left."""

    @given(st.integers(1, 8), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_bounds_every_prefix(self, m, n, seed):
        a = random_ds(m, n, seed=seed).matrix
        high = brute_assignment(a, "max").value
        low = brute_assignment(a, "min").value
        levels = _subsets(n)
        g_max, g_min, col_rem = [0], [0], [m] * n
        for k, row in enumerate(a.array.tolist()):
            left = n - k
            tdet_bound = _prefix_bound(g_max, levels[k], col_rem, left, 1)
            tropdet_bound = -_prefix_bound(g_min, levels[k], col_rem, left, -1)
            assert tdet_bound <= high
            assert tropdet_bound >= low
            if left == 1:
                assert (tdet_bound, tropdet_bound) == (high, low)
            g_max = _extend(g_max, row, levels[k + 1])
            g_min = _extend(g_min, [-x for x in row], levels[k + 1])
            col_rem = [c - x for c, x in zip(col_rem, row)]


class TestRandom:
    def test_deterministic_for_seed(self):
        a = random_ds(6, 5, seed=123)
        b = random_ds(6, 5, seed=123)
        assert a.matrix.entries == b.matrix.entries

    def test_seeds_differ(self):
        draws = {random_ds(6, 5, seed=s).matrix.entries for s in range(20)}
        assert len(draws) > 1

    def test_membership(self):
        for seed in range(10):
            ds = random_ds(7, 4, seed=seed)
            assert ds.m == 7
            assert set(ds.matrix.row_sums()) == {7}
            assert set(ds.matrix.col_sums()) == {7}

    def test_m_one_gives_permutation(self):
        ds = random_ds(1, 6, seed=9)
        assert sorted(ds.matrix.entries) == [0] * 30 + [1] * 6

    def test_single_cell(self):
        assert random_ds(4, 1, seed=0).matrix.to_nested() == [[4]]
