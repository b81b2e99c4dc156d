import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import CIRCULANT_4_6, M5_SUM6, M5_SUM7, M6_SUM7, RUBIK_6X6, mat
from reference import transversal_sums
from tropdet import (
    Certificate,
    CertificateError,
    DomainError,
    IntMatrix,
    MatrixShapeError,
    check_certificate,
    construct_max_tropdet,
    construct_min_tdet,
    extremal_certificate,
    has_transversal_above,
    lower_bound_L,
    random_ds,
    serialize,
    tdet,
    tropdet,
    upper_bound_U,
)
from tropdet import assignment
from tropdet.assignment import EXTREME_N
from tropdet.blocks import _match_rows


def value_along(a, perm):
    return sum(a.array[i, j] for i, j in enumerate(perm))


class TestKnownValues:
    def test_reference_5x5(self):
        t = tdet(M5_SUM7)
        assert t.value == 9
        assert value_along(M5_SUM7, t.perm) == 9

    def test_circulant(self):
        assert tdet(CIRCULANT_4_6).value == 6

    def test_hard_case_witness_6x6(self):
        assert tdet(M6_SUM7).value == 10

    def test_rubik_matrix(self):
        assert tdet(RUBIK_6X6).value == 12

    def test_hard_case_witness_5x5(self):
        assert tdet(M5_SUM6).value == 8

    def test_constant_matrix(self):
        a = mat([[3] * 4 for _ in range(4)])
        assert tdet(a).value == 12
        assert tropdet(a).value == 12

    def test_identity_tropdet(self):
        a = mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert tropdet(a).value == 0
        assert tdet(a).value == 3

    def test_single_entry(self):
        assert tdet(mat([[7]])).value == 7
        assert tropdet(mat([[7]])).value == 7


class TestBrute:
    def test_agrees_with_solver(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(1, 8))
            a = mat(rng.integers(0, 21, size=(n, n)).tolist())
            sums = transversal_sums(a.array)
            assert tdet(a).value == sums.max()
            assert tropdet(a).value == sums.min()


class TestShapeAndDomain:
    def test_non_square(self):
        with pytest.raises(MatrixShapeError):
            tdet(mat([[1, 2, 3], [4, 5, 6]]))

    def test_witness_is_permutation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            a = mat(rng.integers(0, 10, size=(n, n)).tolist())
            for t in (tdet(a), tropdet(a)):
                assert sorted(t.perm) == list(range(n))
                assert value_along(a, t.perm) == t.value


small_square = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, 12), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


class TestAlgebraicProperties:
    @given(small_square)
    def test_min_at_most_max(self, rows):
        a = mat(rows)
        assert tropdet(a).value <= tdet(a).value

    @given(small_square, st.integers(0, 5))
    def test_constant_shift(self, rows, c):
        a = mat(rows)
        b = mat([[x + c for x in row] for row in rows])
        n = a.rows
        assert tdet(b).value == tdet(a).value + n * c
        assert tropdet(b).value == tropdet(a).value + n * c

    @given(small_square, st.randoms(use_true_random=False))
    def test_permutation_invariance(self, rows, rnd):
        a = mat(rows)
        n = a.rows
        rp = list(range(n))
        cp = list(range(n))
        rnd.shuffle(rp)
        rnd.shuffle(cp)
        b = mat(a.array[np.ix_(rp, cp)])
        assert tdet(b).value == tdet(a).value
        assert tropdet(b).value == tropdet(a).value


class TestTransversalAbove:
    def test_identity(self):
        a = mat([[1, 0], [0, 1]])
        found, pairs = has_transversal_above(a, 0)
        assert found and pairs == ((0, 0), (1, 1))

    def test_zero_row_blocks(self):
        found, pairs = has_transversal_above(mat([[1, 1], [0, 0]]), 0)
        assert not found and pairs is None

    def test_threshold_filters(self):
        a = mat([[2, 1], [1, 2]])
        assert has_transversal_above(a, 1)[0]
        assert not has_transversal_above(a, 2)[0]

    def test_rectangular_uses_short_side(self):
        wide = mat([[1, 1, 1], [1, 1, 1]])
        found, pairs = has_transversal_above(wide, 0)
        assert found and len(pairs) == 2
        tall = mat([[1], [1], [1]])
        assert has_transversal_above(tall, 0)[0]

    def test_empty_matrix_refused(self):
        # No matrix is empty, so no empty block reaches the matcher.
        with pytest.raises(MatrixShapeError, match="at least 1 x 1, got 0x2"):
            mat(mat([[1, 2], [3, 4]]).array[np.ix_([], [0, 1])])

    def test_witness_entries_exceed_threshold(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            t = int(rng.integers(0, 4))
            a = mat(rng.integers(0, 6, size=(n, n)).tolist())
            found, pairs = has_transversal_above(a, t)
            if found:
                assert len(pairs) == n
                assert len({i for i, _ in pairs}) == n
                assert len({j for _, j in pairs}) == n
                assert all(a.array[i, j] > t for i, j in pairs)
            else:
                # cross-check: no permutation has all n cells above t
                assert transversal_sums(a.array > t).max() < n

    def test_members_always_have_nonzero_transversal(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = int(rng.integers(1, 12))
            n = int(rng.integers(2, 8))
            ds = random_ds(m, n, seed=int(rng.integers(0, 2**32)))
            assert has_transversal_above(ds.matrix, 0)[0]


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is most of the package's import time; only the solve
    # needs it, so processes that never solve should not pay for it
    src = str(Path(sys.modules["tropdet"].__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, tropdet; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


# One (m, n, objective) per case tag of L and U.
CASE_EXAMPLES = [
    (6, 3, "min-tdet", "R_ZERO"),
    (2, 5, "min-tdet", "Q_ZERO"),
    (8, 5, "min-tdet", "HALF_UP"),
    (7, 5, "min-tdet", "SHARP2"),
    (5, 4, "min-tdet", "HARD_CASE1"),
    (7, 6, "min-tdet", "HARD_CASE2"),
    (7, 5, "max-tropdet", "LOW_R"),
    (8, 5, "max-tropdet", "HIGH_R"),
]


@pytest.mark.parametrize(
    "m,n,objective,tag", CASE_EXAMPLES, ids=[row[3] for row in CASE_EXAMPLES]
)
def test_construct_leaves_scipy_unloaded(m, n, objective, tag):
    # construct proves its value with a closed-form certificate, so it never
    # calls the assignment solve, the one user of scipy
    bound = lower_bound_L if objective == "min-tdet" else upper_bound_U
    assert bound(m, n).case_tag.value == tag
    argv = ["construct", "--m", str(m), "--n", str(n), "--objective", objective]
    assert _scipy_loaded_after(argv) == "False False"


MIN_TDET_EXAMPLES = [row for row in CASE_EXAMPLES if row[2] == "min-tdet"]


@pytest.mark.parametrize(
    "m,n", [row[:2] for row in MIN_TDET_EXAMPLES], ids=[row[3] for row in MIN_TDET_EXAMPLES]
)
def test_rubik_leaves_scipy_unloaded(m, n):
    # rubik's witness is construct's min-tdet member, proved the same way
    argv = ["rubik", "--colors", str(n), "--stickers-per-face", str(m)]
    assert _scipy_loaded_after(argv) == "False False"


def _scipy_loaded_after(argv):
    """Whether scipy.optimize and scipy.sparse are loaded after the CLI runs
    argv in a fresh interpreter, which must exit 0."""
    src = str(Path(sys.modules["tropdet"].__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, tropdet.cli\n"
        "assert tropdet.cli.main(sys.argv[1:]) == 0\n"
        "print('scipy.optimize' in sys.modules, 'scipy.sparse' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.splitlines()[-1]


def test_tropdet_file_leaves_scipy_unloaded(tmp_path):
    # With 2m < n, U(m, n) = qn = 0: the zero cells of every member hold a
    # transversal, which the extreme-cell step finds without the float solve.
    path = tmp_path / "member.txt"
    path.write_text(serialize(random_ds(60, EXTREME_N + 72, seed=4)) + "\n")
    src = str(Path(sys.modules["tropdet"].__file__).resolve().parents[1])
    env_path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, tropdet.cli\n"
        "assert tropdet.cli.main(['tropdet', sys.argv[1]]) == 0\n"
        "print('scipy.optimize' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(path)],
        env={**os.environ, "PYTHONPATH": env_path},
        capture_output=True,
        text=True,
        check=True,
    )
    lines = out.stdout.splitlines()
    assert lines[0] == "tropdet = 0"
    assert lines[-1] == "False"


class TestExtremeCells:
    """From n = EXTREME_N on, a transversal of cells equal to the min answers
    tropdet without the float solve; tdet never tries its max cells.  Values
    are checked against scipy's LSA on a float copy made here."""

    @staticmethod
    def lsa_value(a, maximize):
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(a.array.astype(float), maximize=maximize)
        return int(a.array[rows, cols].sum())

    @staticmethod
    def build(n, maximize, case):
        rng = np.random.default_rng(n)
        extreme = 20 if maximize else 0
        arr = rng.integers(1, 20, size=(n, n))
        arr[rng.random((n, n)) < 0.03] = extreme
        arr[np.arange(n), rng.permutation(n)] = extreme
        if case == "row_without_one":
            arr[n // 2, arr[n // 2] == extreme] = 10
        elif case == "column_without_one":
            arr[arr[:, n // 2] == extreme, n // 2] = 10
        elif case == "hall_violation":
            # Rows 0 and 1 hold extreme cells in column 0 only, so no
            # transversal of them exists; column 1 holds one in row 2.
            arr[arr == extreme] = 10
            arr[np.arange(2, n), np.arange(2, n)] = extreme
            arr[[0, 1, 2], [0, 0, 1]] = extreme
        return IntMatrix(n, n, arr), extreme

    @pytest.mark.parametrize(
        "case", ["transversal", "row_without_one", "column_without_one", "hall_violation"]
    )
    @pytest.mark.parametrize("maximize", [True, False], ids=["tdet", "tropdet"])
    @pytest.mark.parametrize("n", [EXTREME_N - 1, EXTREME_N])
    def test_against_float_lsa(self, monkeypatch, n, maximize, case):
        a, extreme = self.build(n, maximize, case)
        calls = []

        def spy(mask):
            calls.append(mask)
            return _match_rows(mask)

        monkeypatch.setattr(assignment, "_match_rows", spy)
        got = (tdet if maximize else tropdet)(a)
        assert sorted(got.perm) == list(range(n))
        assert value_along(a, got.perm) == got.value == self.lsa_value(a, maximize)
        assert (got.value == n * extreme) == (case == "transversal")
        matched = case in ("transversal", "hall_violation")
        tried = n >= EXTREME_N and not maximize and matched
        assert len(calls) == tried


class TestFloatGuard:
    """The float64 solve stays exact near 2**53: entries are shifted by their
    minimum in int64 first, and a range too wide even then is refused."""

    TOP = 2**53

    def test_probe(self):
        t = self.TOP
        a = mat([[t, t + 1], [t + 1, t + 1]])
        assert tdet(a).value == 2 * t + 2
        assert tropdet(a).value == 2 * t + 1

    @pytest.mark.parametrize("offset", [-3, -1, 0, 1, 3])
    def test_near_two_to_53_matches_brute(self, offset):
        rng = np.random.default_rng(offset + 10)
        for n in (2, 3, 5):
            small = rng.integers(0, 7, size=(n, n))
            a = IntMatrix(n, n, small + (self.TOP + offset))
            sums = transversal_sums(a.array)
            assert tdet(a).value == sums.max()
            assert tropdet(a).value == sums.min()

    def test_last_unshifted_range(self):
        # n * max = 2**53 - 2: the plain path, exact
        r = 2**52 - 1
        a = mat([[0, r], [r, 0]])
        assert tdet(a).value == 2 * r
        assert tropdet(a).value == 0

    @pytest.mark.parametrize("solve", [tdet, tropdet])
    def test_range_past_guard_refused(self, solve):
        t = self.TOP
        with pytest.raises(DomainError, match=r"n \* \(max - min\) < 2\*\*53"):
            solve(mat([[0, t], [t, 0]]))

    # 2**53 - 1 = 6361 * 69431 * 20394401, so no small n has n * (max - min)
    # there: at n = 2 the widest answered range is 2**53 - 2.
    def test_widest_answered_range(self):
        lo, r = 2**52, 2**52 - 1  # n * max past 2**53: the shift runs
        a = mat([[lo + r, lo + 7], [lo, lo + r - 1]])
        sums = transversal_sums(a.array)
        assert tdet(a).value == sums.max() == 2 * lo + 2 * r - 1
        assert tropdet(a).value == sums.min() == 2 * lo + 7

    @pytest.mark.parametrize("solve", [tdet, tropdet])
    def test_first_refused_range(self, solve):
        lo, r = 5, 2**52  # n * (max - min) = 2**53
        with pytest.raises(DomainError, match=r"n \* \(max - min\) < 2\*\*53"):
            solve(mat([[lo, lo + r], [lo + r, lo]]))

    # With min = 1 the shift starts at n * max = 2**53: below it the entries
    # go to float64 as they are, from it on less their minimum.
    @pytest.mark.parametrize("top,shifted", [(2**52 - 1, False), (2**52, True)])
    def test_shift_start(self, monkeypatch, top, shifted):
        a = mat([[1, top], [top - 1, 2]])
        sums = transversal_sums(a.array)
        subtract, calls = np.subtract, []

        def spy(*args, **kwargs):
            calls.append(args)
            return subtract(*args, **kwargs)

        monkeypatch.setattr(np, "subtract", spy)
        assert tdet(a).value == sums.max() == 2 * top - 1
        assert tropdet(a).value == sums.min() == 3
        assert bool(calls) == shifted


class TestCertificate:
    @staticmethod
    def case(objective):
        # HARD_CASE2 for min-tdet, LOW_R for max-tropdet
        build = construct_min_tdet if objective == "min-tdet" else construct_max_tropdet
        a = build(7, 6).matrix
        return a, extremal_certificate(7, 6, objective), objective == "min-tdet"

    @pytest.mark.parametrize("objective", ["min-tdet", "max-tropdet"])
    def test_accepts_and_matches_solver(self, objective):
        a, cert, maximize = self.case(objective)
        got = check_certificate(a, cert, maximize)
        solve = tdet if maximize else tropdet
        assert got.value == solve(a).value == (10 if maximize else 6)
        assert got.perm == cert.perm

    @pytest.mark.parametrize("objective", ["min-tdet", "max-tropdet"])
    def test_rejects_lowered_u0(self, objective):
        a, cert, maximize = self.case(objective)
        u = (cert.u[0] - 1,) + cert.u[1:]
        with pytest.raises(CertificateError):
            check_certificate(a, Certificate(u, cert.v, cert.perm), maximize)

    def test_rejects_raised_witness_entry(self):
        # the duals still bound every cell from below, but the raised cell
        # is no longer tight
        a, cert, maximize = self.case("max-tropdet")
        arr = a.array.copy()
        arr[0, cert.perm[0]] += 1
        with pytest.raises(CertificateError, match="not tight"):
            check_certificate(IntMatrix(6, 6, arr), cert, maximize)

    def test_rejects_raised_entry_above_duals(self):
        a, cert, maximize = self.case("min-tdet")
        arr = a.array.copy()
        arr[0, cert.perm[0]] += 1
        with pytest.raises(CertificateError, match="dual bound fails at cell"):
            check_certificate(IntMatrix(6, 6, arr), cert, maximize)

    @pytest.mark.parametrize("objective", ["min-tdet", "max-tropdet"])
    def test_rejects_repeated_column(self, objective):
        a, cert, maximize = self.case(objective)
        perm = (cert.perm[1],) + cert.perm[1:]
        with pytest.raises(CertificateError, match="not a permutation"):
            check_certificate(a, Certificate(cert.u, cert.v, perm), maximize)

    @pytest.mark.parametrize("objective", ["min-tdet", "max-tropdet"])
    def test_rejects_wrong_flag(self, objective):
        a, cert, maximize = self.case(objective)
        with pytest.raises(CertificateError, match="dual bound fails"):
            check_certificate(a, cert, not maximize)

    def test_rejects_wrong_length(self):
        a, cert, maximize = self.case("min-tdet")
        with pytest.raises(CertificateError, match="6 rows and columns"):
            check_certificate(a, Certificate(cert.u[:5], cert.v, cert.perm), maximize)

    def test_rejects_duals_past_int64(self):
        a, cert, maximize = self.case("min-tdet")
        u = (2**63,) + cert.u[1:]
        with pytest.raises(CertificateError, match="too large"):
            check_certificate(a, Certificate(u, cert.v, cert.perm), maximize)

    def test_unknown_objective(self):
        with pytest.raises(DomainError):
            extremal_certificate(7, 6, "max")


class TestCertificateMessages:
    """The exact cell each failure names.  At (7, 6) the min-tdet member is
    checked with maximize=True, the max-tropdet member with maximize=False;
    off the witness, each cell changed here was tight against its duals, so
    moving it by k breaks its bound by k."""

    @staticmethod
    def check(objective, changes):
        build = construct_min_tdet if objective == "min-tdet" else construct_max_tropdet
        arr = build(7, 6).matrix.array.copy()
        for (i, j), step in changes.items():
            arr[i, j] += step
        cert = extremal_certificate(7, 6, objective)
        return check_certificate(IntMatrix(6, 6, arr), cert, objective == "min-tdet")

    @pytest.mark.parametrize(
        "changes,cell",
        [
            ({(2, 3): 1}, (2, 3)),
            ({(4, 5): 1, (3, 2): 2}, (3, 2)),  # the largest break
            ({(4, 5): 1, (2, 4): 1}, (2, 4)),  # the first of two in row order
        ],
    )
    def test_raised_entry_under_maximize(self, changes, cell):
        with pytest.raises(CertificateError) as err:
            self.check("min-tdet", changes)
        assert str(err.value) == (
            f"dual bound fails at cell {cell}: need u_i + v_j >= a_ij"
        )

    @pytest.mark.parametrize(
        "changes,cell",
        [({(1, 3): -1}, (1, 3)), ({(4, 1): -1, (2, 0): -1}, (2, 0))],
    )
    def test_lowered_entry_under_minimize(self, changes, cell):
        with pytest.raises(CertificateError) as err:
            self.check("max-tropdet", changes)
        assert str(err.value) == (
            f"dual bound fails at cell {cell}: need u_i + v_j <= a_ij"
        )

    @pytest.mark.parametrize(
        "objective,changes,cell",
        [
            ("min-tdet", {(3, 1): -1, (1, 3): -1}, (1, 3)),
            ("max-tropdet", {(0, 5): 1}, (0, 5)),
        ],
    )
    def test_loose_witness_cell(self, objective, changes, cell):
        with pytest.raises(CertificateError) as err:
            self.check(objective, changes)
        assert str(err.value) == f"witness cell {cell} is not tight"

    # From n = 257 on, the bound is checked in more than one block of rows:
    # a break in the last row lies in the last block.
    @pytest.mark.parametrize("m,objective", [(2277, "min-tdet"), (5617, "max-tropdet")])
    def test_break_in_the_last_row_block(self, m, objective):
        n, maximize = 1120, objective == "min-tdet"
        build = construct_min_tdet if maximize else construct_max_tropdet
        arr = build(m, n).matrix.array.copy()
        cert = extremal_certificate(m, n, objective)
        i = n - 1
        j = (cert.perm[i] + 1) % n
        arr[i, j] = cert.u[i] + cert.v[j] + (1 if maximize else -1)
        with pytest.raises(CertificateError) as err:
            check_certificate(IntMatrix(n, n, arr), cert, maximize)
        sense = ">=" if maximize else "<="
        assert str(err.value) == (
            f"dual bound fails at cell ({i}, {j}): need u_i + v_j {sense} a_ij"
        )
