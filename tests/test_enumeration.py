import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import compositions, members, transversal_sums
from tropdet import (
    BudgetExceededError,
    DomainError,
    IntMatrix,
    Transversal,
    TropdetError,
    brute_L,
    brute_U,
    count_D,
    lower_bound_L,
    random_ds,
    tdet,
    tropdet,
    upper_bound_U,
    validate_ds,
)
from tropdet.cli import main
from tropdet.enumerate_ds import (
    _POOL_CACHE_SIZE,
    _compositions,
    _count_dp,
    _differences,
    _expand,
    _tables,
    _two_rows,
)


def _unbuilt(*args):
    raise AssertionError("the row pool was built")


def collect(m, n):
    return [IntMatrix(n, n, flat) for flat in members(m, n)]


def toy_members(m, n):
    """Independent reference enumerator: product of row compositions,
    filtered by column sums.  Yields nested lists in row-major lex order."""
    for rows in itertools.product(compositions(m, n), repeat=n):
        if all(sum(col) == m for col in zip(*rows)):
            yield [list(r) for r in rows]


class TestOrdering:
    def test_two_by_two_exact(self):
        got = [a.array.tolist() for a in collect(2, 2)]
        assert got == [
            [[0, 2], [2, 0]],
            [[1, 1], [1, 1]],
            [[2, 0], [0, 2]],
        ]

    def test_permutation_matrices(self):
        got = [a.array.tolist() for a in collect(1, 3)]
        assert len(got) == 6
        for grid in got:
            assert sorted(sum(row) for row in grid) == [1, 1, 1]
        assert got[0] == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
        assert got[-1] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_single_column(self):
        got = [a.array.tolist() for a in collect(5, 1)]
        assert got == [[[5]]]

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (4, 2)])
    def test_strictly_ascending_no_duplicates(self, m, n):
        flats = [a.entries for a in collect(m, n)]
        assert all(x < y for x, y in zip(flats, flats[1:]))

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (1, 4)])
    def test_matches_reference_enumerator(self, m, n):
        got = [a.array.tolist() for a in collect(m, n)]
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
        for m in range(1, 201):
            expected = math.comb(m + 2, 2) + 3 * math.comb(m + 3, 4)
            assert _count_dp(m, 3, 10**10) == expected
            assert count_D(m, 3, budget=10**10) == expected
        # a bounded number of row pools stays cached, not one per m
        assert _compositions.cache_info().currsize <= _POOL_CACHE_SIZE < 200

    def test_count_leaves_no_reference_cycle(self):
        # the memo and the row pool go when count_D returns, not at a gc
        gc.collect()
        gc.disable()
        try:
            expected = math.comb(32, 2) + 3 * math.comb(33, 4)
            assert _count_dp(30, 3, 10**10) == expected
            assert count_D(30, 3) == expected
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_default_budget_refuses_two_hundred_by_three(self):
        # |D(200, 3)| = 206,075,451; the partial count passes 5 * 10^7 first
        with pytest.raises(BudgetExceededError) as err:
            count_D(200, 3)
        assert err.value.budget == 50_000_000
        assert 50_000_000 < err.value.members <= 206_075_451

    @given(st.data(), st.integers(1, 6), st.integers(1, 12))
    def test_two_rows_match_direct_count(self, data, n, m):
        # column remainders for two rows: a composition of 2m into n parts
        col_rem, rest = [], 2 * m
        for _ in range(n - 1):
            col_rem.append(data.draw(st.integers(0, rest)))
            rest -= col_rem[-1]
        col_rem.append(rest)
        direct = sum(
            all(0 <= c - x <= m for c, x in zip(col_rem, row))
            for row in compositions(m, n)
        )
        assert _two_rows(m, tuple(col_rem)) == direct

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


class TestRowPool:
    @pytest.mark.parametrize(
        "total,parts", [(0, 1), (5, 1), (0, 4), (3, 3), (7, 2), (4, 5), (2, 6), (50, 3)]
    )
    def test_equals_reference(self, total, parts):
        # (50, 3) has 1326 rows, more than one build pass
        pool = _compositions(total, parts)
        assert pool.dtype == np.int64 and not pool.flags.writeable
        assert pool.tolist() == [list(row) for row in compositions(total, parts)]

    @pytest.mark.parametrize("total,parts", [(200, 3), (14, 6), (60, 5)])
    def test_peak_memory_stays_near_pool(self, total, parts):
        # The pool is filled in place: no second array of its size.
        _compositions.cache_clear()
        tracemalloc.start()
        try:
            pool = _compositions(total, parts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            _compositions.cache_clear()
        assert peak <= 2 * pool.nbytes, (peak, pool.nbytes)


class TestBudget:
    def test_upfront_refusal(self):
        # a count of first rows exceeds the budget, so no work starts
        with pytest.raises(BudgetExceededError) as err:
            count_D(10, 5, budget=100)
        assert err.value.members == 286  # C(13, 3), of the C(14, 4) first rows
        assert err.value.budget == 100
        assert err.value.members > err.value.budget

    # Refused on the first running product past the budget: C(a + i, i)
    # first rows with a = max(m, n - 1), or i! permutation matrices.
    @pytest.mark.parametrize(
        "m,n,members",
        [
            (1, 1000, 479001600),  # 12!
            (10000, 10000, 50015001),  # C(10002, 2)
            (10**18, 10**18, 10**18 + 1),  # C(10^18 + 1, 1)
            (3000, 3000, 4509005501),  # C(3003, 3), of a 1800-digit pool
        ],
    )
    def test_refusal_builds_no_giant_count(self, m, n, members):
        with pytest.raises(BudgetExceededError) as err:
            count_D(m, n)
        assert err.value.members == members

    # Past the budget's checks, a pool of C(m + n - 1, n - 1) rows of n cells
    # is refused before it is built when it passes the package's cell limit.
    @pytest.mark.parametrize("m,n,cells", [(87, 6, 295062768), (21, 11, 487873815)])
    def test_pool_past_cell_limit_refused_unbuilt(self, monkeypatch, m, n, cells):
        monkeypatch.setattr("tropdet.enumerate_ds._compositions", _unbuilt)
        with pytest.raises(DomainError, match=f"rows \\* n <= 25000000, got {cells}$"):
            count_D(m, n)

    def test_pool_within_cell_limit_is_built(self, monkeypatch):
        # C(25, 5) rows of 6 cells: 318780; n = 6 has no polynomial path
        monkeypatch.setattr("tropdet.enumerate_ds._compositions", _unbuilt)
        with pytest.raises(AssertionError, match="built"):
            count_D(20, 6, budget=10**10)

    def test_midstream_stop(self):
        # 6! = 720 passes the pre-check, then a partial count of the DP does
        with pytest.raises(BudgetExceededError) as err:
            count_D(2, 6, budget=1000)
        assert err.value.members == 1044
        assert err.value.budget == 1000
        assert err.value.members > err.value.budget

    def test_polynomial_refuses_with_exact_count(self):
        # 6 first rows pass the pre-check; the polynomial then gives |D|
        with pytest.raises(BudgetExceededError) as err:
            count_D(2, 3, budget=10)
        assert (err.value.members, err.value.budget) == (21, 10)

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
        assert err.value.members == 2008
        assert err.value.budget == 2007
        assert err.value.members > err.value.budget

    def test_member_budget_exactly_sufficient(self):
        assert count_D(3, 4, budget=2008) == 2008
        assert brute_L(3, 4, budget=2008).count == 2008

    def test_brute_U_budget_counts_members(self):
        with pytest.raises(BudgetExceededError) as err:
            brute_U(3, 4, budget=2007)
        assert err.value.members == 2008
        assert err.value.budget == 2007
        assert err.value.members > err.value.budget
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
            if transversal_sums(grid).max() == 3:
                assert stats.witness.matrix.array.tolist() == grid
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

    def test_witness_recheck_raises(self, monkeypatch, capsys):
        # An explicit check, not an assert: python -O keeps it, and the CLI
        # reports it as one error line instead of a traceback.
        monkeypatch.setattr(
            "tropdet.enumerate_ds.tdet",
            lambda a: Transversal(tdet(a).perm, tdet(a).value + 1),
        )
        with pytest.raises(TropdetError, match="tdet is 4, the search found 3"):
            brute_L(2, 3)
        assert main(["enumerate", "--m", "2", "--n", "3", "--stat", "min-tdet"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


def unreduced_extremes(m, n):
    """|D(m, n)| and, for tdet's minimum and tropdet's maximum, the value
    and the first member attaining it, from every member of the reference
    walk and every permutation's sum."""
    flats = np.array(list(members(m, n)), dtype=np.int64)
    sums = transversal_sums(flats.reshape(-1, n, n))
    tdets, tropdets = sums.max(axis=1), sums.min(axis=1)
    low, high = int(tdets.argmin()), int(tropdets.argmax())
    return (
        len(flats),
        (int(tdets[low]), tuple(flats[low].tolist())),
        (int(tropdets[high]), tuple(flats[high].tolist())),
    )


# The acceptance oracle grid's cells with n <= 3, its n = 4 cells with
# m <= 4, and (2, 5).
UNREDUCED_CELLS = (
    [(m, n) for n in (2, 3) for m in range(1, 9)]
    + [(m, 4) for m in range(1, 5)]
    + [(2, 5)]
)


def ehrhart(n, t):
    """E_n(t) from the forward differences, at any integer t: C(x, k) as a
    falling factorial over k!, exact also for x < 0."""
    x = t + n + math.comb(n - 1, 2)
    return sum(
        dk * math.prod(range(x - k + 1, x + 1)) // math.factorial(k)
        for k, dk in enumerate(_differences(n))
    )


class TestEhrhart:
    """count_D at n <= 5 past m = s = C(n - 1, 2) evaluates the Ehrhart
    polynomial of the Birkhoff polytope, built from the DP at m <= s + 1."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_reciprocity(self, n):
        d = (n - 1) ** 2
        assert ehrhart(n, 0) == 1
        assert [ehrhart(n, -t) for t in range(1, n)] == [0] * (n - 1)
        for k in (0, 1, 2, 5, 9, 40, 1000):
            assert ehrhart(n, -n - k) == (-1) ** d * ehrhart(n, k)
        s = math.comb(n - 1, 2)
        for k in (s + 1, s + 2):  # past the nodes, against the DP itself
            assert ehrhart(n, -n - k) == (-1) ** d * _count_dp(k, n, 10**10)

    @pytest.mark.parametrize(
        "n,ms", [(3, range(2, 41)), (4, range(4, 13)), (1, range(1, 9)), (2, range(1, 9))]
    )
    def test_matches_dp_past_the_nodes(self, n, ms):
        # n = 5 at m = 7 and 8: PINNED_COUNTS, from the row-orbit walk
        for m in ms:
            assert count_D(m, n, budget=10**10) == _count_dp(m, n, 10**10)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_paths_agree_at_the_switch(self, n):
        s = math.comb(n - 1, 2)
        for m in (s, s + 1):
            assert count_D(m, n, budget=10**10) == _count_dp(m, n, 10**10)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_node_off_by_one_raises(self, monkeypatch, n):
        s = math.comb(n - 1, 2)
        for node in range(1, s + 2):
            monkeypatch.setattr(
                "tropdet.enumerate_ds._count_dp",
                lambda m, k, budget, node=node: _count_dp(m, k, budget) + (m == node),
            )
            _differences.cache_clear()
            try:
                with pytest.raises(TropdetError, match=f"by DP, .* by E_{n}$"):
                    count_D(s + 2, n)
            finally:
                _differences.cache_clear()

    def test_huge_m_matches_macmahon(self):
        m = 10**18
        expected = math.comb(m + 2, 2) + 3 * math.comb(m + 3, 4)
        assert count_D(m, 3, budget=10**80) == expected

    def test_search_pool_keeps_the_cell_limit(self, monkeypatch):
        # the count passes by the polynomial; the search's pool of C(100002, 2)
        # rows must still be refused before it is built
        monkeypatch.setattr("tropdet.enumerate_ds._compositions", _unbuilt)
        with pytest.raises(DomainError, match="rows \\* n <= 25000000"):
            brute_L(10**5, 3, budget=10**30)

    def test_search_tables_keep_the_cell_limit(self, monkeypatch):
        # 21! < 10**30 passes the budget; 21 * 2**21 subset-table cells do not
        monkeypatch.setattr("tropdet.enumerate_ds._tables", _unbuilt)
        with pytest.raises(DomainError, match="n \\* 2\\*\\*n <= 25000000, got n = 21$"):
            brute_L(1, 21, budget=10**30)

    def test_cli_counts_a_million_by_five(self, capsys, monkeypatch):
        monkeypatch.setenv("TROPDET_MAX_VISITS", "1" + "0" * 100)
        code = main(["enumerate", "--m", "1000000", "--n", "5", "--stat", "count"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert out == f"|D(1000000,5)| = {ehrhart(5, 10**6)}\n"
        assert len(str(ehrhart(5, 10**6))) == 90


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


def digits(text):
    """A flat matrix written as its single-digit entries, rows spaced."""
    return tuple(int(d) for d in text if d != " ")


# The lex-first witnesses of brute_L and brute_U, recorded before the
# column-class filter was added to the search, on cells where it prunes.
PINNED_WITNESSES = {
    (8, 4): (digits("2222 2222 2222 2222"), digits("2222 2222 2222 2222")),
    (7, 4): (digits("1222 2122 2212 2221"), digits("1114 2221 2221 2221")),
    (4, 5): (
        digits("01111 10111 11011 11101 11110"),
        digits("00004 11110 11110 11110 11110"),
    ),
    (5, 5): (
        digits("11111 11111 11111 11111 11111"),
        digits("11111 11111 11111 11111 11111"),
    ),
    (3, 6): (
        digits("000111 000111 000111 111000 111000 111000"),
        digits("000003 000030 000300 003000 030000 300000"),
    ),
    (2, 6): (
        digits("000011 000011 001100 001100 110000 110000"),
        digits("000002 000020 000200 002000 020000 200000"),
    ),
}


@pytest.mark.parametrize("m,n", sorted(PINNED_WITNESSES))
def test_pinned_witnesses(m, n):
    low, high = PINNED_WITNESSES[(m, n)]
    assert brute_L(m, n).witness.matrix.entries == low
    assert brute_U(m, n).witness.matrix.entries == high


class TestWiderGrid:
    """Cells past the default budget: the searches still agree with the
    closed forms and with the pinned counts."""

    @pytest.mark.parametrize(
        "m,n", [(6, 5), (7, 5), (8, 5), (4, 6), (3, 7), (2, 8), (4, 7), (2, 9)]
    )
    def test_extremes_match_closed_forms(self, m, n):
        low = brute_L(m, n, budget=10**13)
        high = brute_U(m, n, budget=10**13)
        assert low.extremum == lower_bound_L(m, n).value
        assert high.extremum == upper_bound_U(m, n).value
        assert low.count == high.count
        if (m, n) in PINNED_COUNTS:
            assert low.count == PINNED_COUNTS[(m, n)]


# Nodes the search expands, brute_L / brute_U, counted before the search
# ran on the batched numpy kernel: the kernel walks the same tree.
EXPANDED_NODES = {
    (5, 4): (16, 13),
    (6, 4): (17, 8),
    (8, 4): (25, 19),
    (2, 5): (12, 6),
    (3, 5): (17, 7),
    (2, 6): (28, 11),
    (3, 7): (163, 211),
    (4, 7): (139, 100),
}


@pytest.mark.parametrize("m,n", sorted(EXPANDED_NODES))
def test_expanded_nodes_pinned(monkeypatch, m, n):
    calls = []

    def counted(*args):
        calls.append(None)
        return _expand(*args)

    monkeypatch.setattr("tropdet.enumerate_ds._expand", counted)
    expanded = []
    for search in (brute_L, brute_U):
        calls.clear()
        search(m, n, budget=10**13)
        expanded.append(len(calls))
    assert tuple(expanded) == EXPANDED_NODES[(m, n)]


class TestPrefixBound:
    """The branch-and-bound's bound, after every prefix of rows of a
    member, never passes the member's own tdet or tropdet, and is exact
    once one row is left."""

    @given(st.integers(1, 8), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_bounds_every_prefix(self, m, n, seed):
        a = random_ds(m, n, seed=seed).matrix
        sums = transversal_sums(a.array)
        high, low = int(sums.max()), int(sums.min())
        # Rows sorted, as the search places them: row k then passes the
        # search's filter as the one row of the pool (tied = 0: no pairs).
        rows = np.array(sorted(a.array.tolist()), dtype=np.int64)
        no_falls = np.zeros(1, np.int64)
        levels = _tables(n)
        g_max = g_min = np.zeros(1, np.int64)
        col_rem = np.full(n, m, np.int64)
        for k in range(n - 1):
            pool, level, left = rows[k : k + 1], levels[k + 1], n - k
            _, rest, g_max, tdet_bound = _expand(
                pool, no_falls, m, 1, level, 0, col_rem, left, 0, g_max
            )
            _, _, g_min, tropdet_bound = _expand(
                pool, no_falls, m, -1, level, 0, col_rem, left, 0, g_min
            )
            assert len(rest) == 1
            tdet_bound, tropdet_bound = int(tdet_bound[0]), -int(tropdet_bound[0])
            assert tdet_bound <= high
            assert tropdet_bound >= low
            if k == n - 2:  # the last row is forced
                assert (tdet_bound, tropdet_bound) == (high, low)
            g_max, g_min, col_rem = g_max[0], g_min[0], rest[0]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_parent_ranks_in_combinations_order(self, n):
        for k, (cols, parents) in enumerate(_tables(n)):
            subsets = list(itertools.combinations(range(n), k))
            below = list(itertools.combinations(range(n), max(k - 1, 0)))
            assert cols.tolist() == [list(s) for s in subsets]
            assert parents.tolist() == [
                [below.index(tuple(c for c in s if c != j)) for j in s] for s in subsets
            ]

    def test_tables_stay_bounded(self):
        # a bounded number of n keep their tables cached, not one per n
        for k in range(1, 12):
            _tables(k)
        assert _tables.cache_info().currsize <= _POOL_CACHE_SIZE < 11


class TestOneColumn:
    """At n = 1 the pool is the one row (m), for every m within int64."""

    @pytest.mark.parametrize("m", [1, 2**40, 2**63 - 1])
    def test_single_entry(self, m):
        for search in (brute_L, brute_U):
            stats = search(m, 1)
            assert (stats.count, stats.extremum) == (1, m)
            assert stats.witness.matrix.entries == (m,)

    def test_past_int64_refused(self):
        with pytest.raises(DomainError, match="int64 limit"):
            brute_L(2**63, 1)


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
            assert set(ds.matrix.array.sum(axis=1).tolist()) == {7}
            assert set(ds.matrix.array.sum(axis=0).tolist()) == {7}

    def test_m_one_gives_permutation(self):
        ds = random_ds(1, 6, seed=9)
        assert sorted(ds.matrix.entries) == [0] * 30 + [1] * 6

    def test_single_cell(self):
        assert random_ds(4, 1, seed=0).matrix.array.tolist() == [[4]]

    def test_draws_capped_by_visit_budget(self, monkeypatch):
        monkeypatch.setattr("tropdet.enumerate_ds.DEFAULT_VISIT_BUDGET", 12)
        assert random_ds(4, 3, seed=0).m == 4  # m * n = 12, just at the limit
        with pytest.raises(DomainError, match=r"m \* n <= 12, got 13"):
            random_ds(13, 1, seed=0)
