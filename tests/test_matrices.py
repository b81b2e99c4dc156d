import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import CIRCULANT_4_6, CIRCULANT_4_6_TEXT, M5_SUM7, mat
from tropdet import (
    DomainError,
    DSMatrix,
    IntMatrix,
    LineSumError,
    MatrixParseError,
    MatrixShapeError,
    parse_matrix,
    serialize,
    split,
    validate_ds,
)


class TestParse:
    def test_identity(self):
        assert parse_matrix("1 0\n0 1") == mat([[1, 0], [0, 1]])

    def test_crlf(self):
        assert parse_matrix("1 0\r\n0 1\r\n") == mat([[1, 0], [0, 1]])

    def test_trailing_newline(self):
        assert parse_matrix("5\n") == mat([[5]])

    def test_circulant_text(self):
        assert parse_matrix(CIRCULANT_4_6_TEXT) == CIRCULANT_4_6

    def test_multi_space_separators(self):
        assert parse_matrix("1  0\n0\t1") == mat([[1, 0], [0, 1]])

    def test_empty_input(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("")
        with pytest.raises(MatrixParseError):
            parse_matrix("  \n \n")

    def test_interior_blank_line(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("1 0\n\n0 1")

    def test_ragged(self):
        with pytest.raises(MatrixShapeError):
            parse_matrix("1 2\n3")

    def test_negative_token(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("1 -2\n3 4")

    def test_non_integer_token(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("1 2.5\n3 4")
        with pytest.raises(MatrixParseError):
            parse_matrix("a b\nc d")


class TestSerialize:
    def test_plain(self):
        assert serialize(mat([[1, 0], [0, 1]])) == "1 0\n0 1"
        assert serialize(mat([[5]])) == "5"

    def test_plain_no_trailing_whitespace(self):
        text = serialize(M5_SUM7)
        assert all(line == line.rstrip() for line in text.split("\n"))
        assert not text.endswith("\n")

    def test_structured(self):
        doc = json.loads(serialize(mat([[1, 2], [3, 4]]), "structured"))
        assert doc == {"rows": 2, "cols": 2, "entries": [1, 2, 3, 4]}

    def test_structured_carries_m_for_members(self):
        ds = validate_ds(M5_SUM7)
        doc = json.loads(serialize(ds, "structured"))
        assert doc["m"] == 7
        assert doc["rows"] == doc["cols"] == 5

    def test_unknown_format(self):
        with pytest.raises(DomainError):
            serialize(mat([[1]]), "yaml")

    @given(
        st.integers(1, 5).flatmap(
            lambda w: st.lists(
                st.lists(st.integers(0, 9), min_size=w, max_size=w),
                min_size=1,
                max_size=5,
            )
        )
    )
    def test_round_trip(self, rows):
        a = mat(rows)
        assert parse_matrix(serialize(a)) == a


class TestIntMatrix:
    def test_row_and_col_sums(self):
        a = mat([[1, 2], [3, 4]])
        assert a.row_sums() == (3, 7)
        assert a.col_sums() == (4, 6)

    def test_at(self):
        assert M5_SUM7.at(0, 2) == 2
        assert M5_SUM7.at(4, 0) == 2

    def test_submatrix_reorders(self):
        a = mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert a.submatrix([2, 0], [1, 2]) == mat([[8, 9], [2, 3]])

    def test_empty_submatrix_allowed(self):
        a = mat([[1, 2], [3, 4]])
        sub = a.submatrix([], [0, 1])
        assert sub.rows == 0 and sub.cols == 2

    def test_bad_entry_count(self):
        with pytest.raises(MatrixShapeError):
            IntMatrix(2, 2, (1, 2, 3))

    def test_negative_entry(self):
        with pytest.raises(MatrixParseError):
            IntMatrix(1, 2, (1, -1))

    @pytest.mark.parametrize(
        "rows,cols,entries",
        [(1, 1, (2**63,)), (2, 2, (5 * 10**18, 0, 0, 5 * 10**18))],
    )
    def test_sums_past_int64_rejected(self, rows, cols, entries):
        with pytest.raises(DomainError, match="2\\*\\*63 - 1"):
            IntMatrix(rows, cols, entries)

    def test_largest_exact_entries_accepted(self):
        top = (2**63 - 1) // 2
        a = IntMatrix(2, 2, (top, 0, 0, top))
        assert a.row_sums() == (top, top)
        assert IntMatrix(1, 1, (2**63 - 1,)).at(0, 0) == 2**63 - 1

    def test_array_is_read_only(self):
        a = mat([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            a.array[0, 0] = 7
        assert a.at(0, 0) == 1


class TestValidate:
    def test_ones(self):
        ds = validate_ds(mat([[1, 1], [1, 1]]))
        assert ds.m == 2 and ds.n == 2

    def test_reference_member(self):
        assert validate_ds(M5_SUM7).m == 7

    def test_circulant_member(self):
        assert validate_ds(CIRCULANT_4_6).m == 4

    def test_unequal_columns(self):
        with pytest.raises(LineSumError) as err:
            validate_ds(mat([[1, 0], [1, 0]]))
        assert err.value.axis == "column"
        assert err.value.index == 1
        assert err.value.total == 0
        assert err.value.expected == 2

    def test_unequal_rows(self):
        with pytest.raises(LineSumError) as err:
            validate_ds(mat([[1, 1], [0, 1]]))
        assert err.value.axis == "row"
        assert err.value.index == 1

    def test_non_square(self):
        with pytest.raises(MatrixShapeError):
            validate_ds(mat([[1, 1]]))

    def test_direct_construction_is_checked(self):
        with pytest.raises(LineSumError):
            DSMatrix(matrix=mat([[1, 0], [0, 1]]), m=2)


class TestSplit:
    @pytest.mark.parametrize(
        "m,n,q,r",
        [(7, 5, 1, 2), (9, 6, 1, 3), (12, 4, 3, 0), (3, 7, 0, 3), (1, 1, 1, 0)],
    )
    def test_known_splits(self, m, n, q, r):
        p = split(m, n)
        assert (p.q, p.r) == (q, r)

    @given(st.integers(1, 10**6), st.integers(1, 10**4))
    def test_reconstruction(self, m, n):
        p = split(m, n)
        assert p.q * n + p.r == m
        assert 0 <= p.r < n

    def test_domain(self):
        with pytest.raises(DomainError):
            split(0, 3)
        with pytest.raises(DomainError):
            split(3, 0)
