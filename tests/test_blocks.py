import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import mat
from reference import low_block_sum, low_blocks
from tropdet import (
    MatrixShapeError,
    construct_min_tdet,
    has_transversal_above,
    largest_low_block,
    max_matching_above,
    random_ds,
)


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
            assert all(a.array[i, j] > t for i, j in pairs)


class TestKnownBlocks:
    def test_identity_has_empty_row_side(self):
        block = largest_low_block(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 0)
        assert block.row_set == ()
        assert block.col_set == (0, 1, 2)
        assert block.dimension_sum == 3

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

    def test_failed_search_then_augmenting_row(self):
        # greedy leaves rows 1 and 3 unmatched; row 1's search reaches only
        # column 0 and fails, and row 3 still augments through row 2
        a = mat([[1, 0, 0, 0], [1, 0, 0, 0], [0, 1, 1, 0], [0, 1, 0, 0]])
        size, pairs = max_matching_above(a, 0)
        assert size == 3
        assert pairs == ((0, 0), (2, 2), (3, 1))
        block = largest_low_block(a, 0)
        assert block.row_set == (0, 1)
        assert block.col_set == (1, 2, 3)

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
            assert block.dimension_sum == low_block_sum(a.array, t)
            for i in block.row_set:
                for j in block.col_set:
                    assert a.array[i, j] <= t

    def test_fewest_row_block_against_every_row_set(self):
        # the matching size is 2n - the largest block sum, and the block's
        # rows are the one maximiser with fewest rows over all 2^n row sets
        rng = np.random.default_rng(34)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            raw = rng.integers(0, 4, size=(n, n))
            a = mat(raw * (rng.random(size=(n, n)) < rng.random()))
            t = int(rng.integers(0, 3))
            best, maximisers = low_blocks(a.array, t)
            assert max_matching_above(a, t)[0] == 2 * n - best
            fewest = min(map(len, maximisers))
            [rows] = [r for r in maximisers if len(r) == fewest]
            block = largest_low_block(a, t)
            assert block.row_set == rows
            high = (a.array[list(rows)] > t).any(axis=0)
            assert block.col_set == tuple((~high).nonzero()[0].tolist())

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
    def test_off_blocks_carry_full_transversals(self):
        # the König structure: the rows outside the block match into its
        # columns, and the columns outside it match into its rows
        rng = np.random.default_rng(36)
        checked = 0
        for _ in range(60):
            n = int(rng.integers(2, 8))
            a = random_square(rng, n, 0.4)
            t = int(rng.integers(0, 2))
            block = largest_low_block(a, t)
            other_rows = sorted(set(range(n)) - set(block.row_set))
            other_cols = sorted(set(range(n)) - set(block.col_set))
            if not other_rows or not other_cols:
                continue
            checked += 1
            upper_right = mat(a.array[np.ix_(other_rows, block.col_set)])
            lower_left = mat(a.array[np.ix_(block.row_set, other_cols)])
            found, pairs = has_transversal_above(upper_right, t)
            assert found and len(pairs) == len(other_rows)
            found, pairs = has_transversal_above(lower_left, t)
            assert found and len(pairs) == len(other_cols)
        assert checked >= 10


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
        assert all(a.array[i, j] > 0 for i, j in pairs)

    def test_large_deficient_member(self):
        # at t = q = 5 the above-t graph matches only 2000 of 3000 rows, so
        # a thousand searches fail and the König block is large
        member = construct_min_tdet(16000, 3000).matrix
        a, n, t = member.array, 3000, 5
        size, pairs = max_matching_above(member, t)
        assert size == 2000 and len(pairs) == size
        rows, cols = map(list, zip(*pairs))
        assert len(set(rows)) == len(set(cols)) == size
        assert (a[rows, cols] > t).all()
        block = largest_low_block(member, t)
        assert block.dimension_sum == 2 * n - size
        assert not (a[np.ix_(block.row_set, block.col_set)] > t).any()
        assert not has_transversal_above(member, t)[0]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bounds", "--m", "7", "--n", "5"],
        ["enumerate", "--m", "3", "--n", "4", "--stat", "count"],
        ["zero-block", "m.txt"],
    ],
)
def test_scipy_sparse_left_unloaded(argv, tmp_path):
    # scipy.sparse is most of scipy's import time and nothing in the
    # package uses it, so neither the import nor any command should load it
    (tmp_path / "m.txt").write_text("2 1 0\n0 2 1\n1 0 2\n")
    src = str(Path(sys.modules["tropdet"].__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, tropdet.cli\n"
        "if sys.argv[1:]:\n"
        "    assert tropdet.cli.main(sys.argv[1:]) == 0\n"
        "print('scipy.sparse' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.splitlines()[-1] == "False"
