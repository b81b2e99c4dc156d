import numpy as np
import pytest

from conftest import mat
from tropdet import (
    MatrixShapeError,
    arrange_block_corner,
    construct_min_tdet,
    has_transversal_above,
    largest_low_block,
    max_matching_above,
    random_ds,
    tdet,
    tropdet,
)


def brute_best_sum(a, t):
    """Max |R| + |S| with every entry of R x S at most t, by row subsets.

    For a fixed row set R the best column set is everything outside the
    neighborhood of R, so one pass over the 2^rows subsets is exact.
    """
    masks = []
    for i in range(a.rows):
        mask = 0
        for j in range(a.cols):
            if a.at(i, j) > t:
                mask |= 1 << j
        masks.append(mask)
    best = 0
    for sub in range(1 << a.rows):
        neigh = 0
        size = 0
        for i, mk in enumerate(masks):
            if (sub >> i) & 1:
                neigh |= mk
                size += 1
        best = max(best, size + a.cols - neigh.bit_count())
    return best


def random_square(rng, n, density):
    raw = rng.integers(1, 6, size=(n, n))
    mask = rng.random(size=(n, n)) < density
    return mat((raw * mask).astype(int).tolist())


class TestMatching:
    def test_identity(self):
        size, pairs = max_matching_above(mat([[1, 0], [0, 1]]), 0)
        assert size == 2
        assert pairs == ((0, 0), (1, 1))

    def test_augmenting_path_needed(self):
        # row 1 only likes column 0, forcing row 0 over to column 1
        size, pairs = max_matching_above(mat([[1, 1], [1, 0]]), 0)
        assert size == 2
        assert pairs == ((0, 1), (1, 0))

    def test_all_low(self):
        size, pairs = max_matching_above(mat([[0, 0], [0, 0]]), 0)
        assert size == 0 and pairs == ()

    def test_threshold_cuts_entries(self):
        a = mat([[2, 1], [1, 2]])
        assert max_matching_above(a, 1)[0] == 2
        assert max_matching_above(a, 2)[0] == 0

    def test_rectangular(self):
        size, pairs = max_matching_above(mat([[1, 0, 1]]), 0)
        assert size == 1 and pairs == ((0, 0),)
        assert max_matching_above(mat([[1], [1], [0]]), 0)[0] == 1

    def test_pairs_are_above_threshold(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            a = random_square(rng, n, 0.5)
            t = int(rng.integers(0, 3))
            size, pairs = max_matching_above(a, t)
            assert len(pairs) == size
            assert len({i for i, _ in pairs}) == size
            assert len({j for _, j in pairs}) == size
            assert all(a.at(i, j) > t for i, j in pairs)


class TestKnownBlocks:
    def test_identity_has_empty_row_side(self):
        block = largest_low_block(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 0)
        assert block.row_set == ()
        assert block.col_set == (0, 1, 2)
        assert block.dimension_sum == 3
        assert (block.k1, block.k2) == (3, 0)

    def test_all_ones(self):
        # nothing is low, so the block degenerates to no rows, all columns
        block = largest_low_block(mat([[1] * 3 for _ in range(3)]), 0)
        assert block.row_set == ()
        assert block.col_set == (0, 1, 2)
        assert block.dimension_sum == 3

    def test_zero_row(self):
        a = mat([[1, 1, 1], [0, 0, 0], [1, 1, 1]])
        block = largest_low_block(a, 0)
        assert block.row_set == (1,)
        assert block.col_set == (0, 1, 2)
        assert block.dimension_sum == 4
        assert not has_transversal_above(a, 0)[0]

    def test_mixed_sides(self):
        a = mat([[1, 0, 0], [1, 0, 0], [1, 1, 1]])
        block = largest_low_block(a, 0)
        assert block.row_set == (0, 1)
        assert block.col_set == (1, 2)
        assert (block.k1, block.k2) == (1, 1)
        assert block.row_perm == (2, 0, 1)
        assert block.col_perm == (0, 1, 2)

    def test_non_square_rejected(self):
        with pytest.raises(MatrixShapeError):
            largest_low_block(mat([[1, 2, 3], [4, 5, 6]]), 0)


class TestAgainstBrute:
    def test_matches_subset_search(self):
        rng = np.random.default_rng(31)
        densities = [0.1, 0.3, 0.5, 0.7, 0.9]
        for trial in range(80):
            n = int(rng.integers(1, 8))
            a = random_square(rng, n, densities[trial % len(densities)])
            t = int(rng.integers(0, 3))
            size, _ = max_matching_above(a, t)
            block = largest_low_block(a, t)
            assert block.dimension_sum == 2 * n - size
            assert block.dimension_sum == brute_best_sum(a, t)
            assert block.k1 + block.k2 == size
            for i in block.row_set:
                for j in block.col_set:
                    assert a.at(i, j) <= t

    def test_hall_criterion(self):
        rng = np.random.default_rng(32)
        for trial in range(60):
            n = int(rng.integers(1, 8))
            a = random_square(rng, n, 0.2 + 0.1 * (trial % 7))
            t = int(rng.integers(0, 3))
            found = has_transversal_above(a, t)[0]
            block = largest_low_block(a, t)
            assert found == (block.dimension_sum <= n)

    def test_sum_monotone_in_threshold(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            a = random_square(rng, n, 0.6)
            sums = [
                largest_low_block(a, t).dimension_sum for t in range(0, 6)
            ]
            assert sums == sorted(sums)


class TestArrange:
    def test_block_lands_lower_right(self):
        rng = np.random.default_rng(34)
        for _ in range(40):
            n = int(rng.integers(1, 8))
            a = random_square(rng, n, 0.4)
            t = int(rng.integers(0, 3))
            permuted, block = arrange_block_corner(a, t)
            assert sorted(block.row_perm) == list(range(n))
            assert sorted(block.col_perm) == list(range(n))
            for i in range(block.k1, n):
                for j in range(block.k2, n):
                    assert permuted.at(i, j) <= t

    def test_values_preserved(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            a = random_square(rng, n, 0.7)
            permuted, _ = arrange_block_corner(a, 1)
            assert tdet(permuted).value == tdet(a).value
            assert tropdet(permuted).value == tropdet(a).value

    def test_off_blocks_carry_full_transversals(self):
        # the k1 rows above the block match into its columns, and the
        # k2 columns beside it match into its rows
        rng = np.random.default_rng(36)
        checked = 0
        for _ in range(60):
            n = int(rng.integers(2, 8))
            a = random_square(rng, n, 0.4)
            t = int(rng.integers(0, 2))
            permuted, block = arrange_block_corner(a, t)
            if block.k1 == 0 or block.k2 == 0:
                continue
            checked += 1
            upper_right = permuted.submatrix(
                list(range(block.k1)), list(range(block.k2, n))
            )
            lower_left = permuted.submatrix(
                list(range(block.k1, n)), list(range(block.k2))
            )
            found, pairs = has_transversal_above(upper_right, t)
            assert found and len(pairs) == block.k1
            found, pairs = has_transversal_above(lower_left, t)
            assert found and len(pairs) == block.k2
        assert checked >= 10

    def test_example_arrangement(self):
        a = mat([[1, 0, 0], [1, 0, 0], [1, 1, 1]])
        permuted, block = arrange_block_corner(a, 0)
        assert permuted.to_nested() == [[1, 1, 1], [1, 0, 0], [1, 0, 0]]


class TestDoublyStochastic:
    def test_members_never_exceed_n_at_zero(self):
        # line sums force a positive transversal, capping the block sum
        rng = np.random.default_rng(37)
        for _ in range(30):
            m = int(rng.integers(1, 10))
            n = int(rng.integers(2, 9))
            ds = random_ds(m, n, seed=int(rng.integers(0, 2**32)))
            block = largest_low_block(ds.matrix, 0)
            assert block.dimension_sum <= n

    def test_large_member(self):
        # alternating paths hundreds of rows long
        a = construct_min_tdet(1001, 1000).matrix
        block = largest_low_block(a, 0)
        assert block.dimension_sum <= 1000
        found, pairs = has_transversal_above(a, 0)
        assert found and len(pairs) == 1000
        assert all(a.at(i, j) > 0 for i, j in pairs)
