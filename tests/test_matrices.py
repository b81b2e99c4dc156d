import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
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
    random_ds,
    serialize,
    split,
    validate_ds,
)
from tropdet.matrices import _CHUNK, _parse_canonical, structured_doc


# Outcomes of parse_matrix recorded from the per-token parser before the
# numpy fast path existed: (name, text, fast, outcome), where outcome is
# ("ok", rows) or (exception type name, message).  Tokens past 2**63 - 1
# were refused later by the entry limit or the dtype check; the token path
# now refuses them first, naming the line and the token.  `fast` marks the
# canonical texts that the numpy path accepts; every other text must fall
# through to the per-token loop.
BAD = "(decimal non-negative integers only)"
LIMIT = (
    "per line can sum past the int64 limit: "
    "need max entry * max(rows, cols) <= 2**63 - 1"
)
PAST = "is past 2**63 - 1"
I2 = [[1, 0], [0, 1]]
PARSE_TABLE = [
    ("canonical", "1 2\n3 4\n", True, ("ok", [[1, 2], [3, 4]])),
    ("zeros", "0 0\n0 0", True, ("ok", [[0, 0], [0, 0]])),
    ("crlf", "1 0\r\n0 1\r\n", False, ("ok", I2)),
    ("crlf_trailing_space", "1 0 \r\n0 1\r\n", False, ("ok", I2)),
    ("tabs", "1\t0\n0\t1", False, ("ok", I2)),
    ("double_space", "1  0\n0  1", False, ("ok", I2)),
    ("leading_space", " 1 0\n 0 1", False, ("ok", I2)),
    ("trailing_space", "1 0 \n0 1 ", False, ("ok", I2)),
    ("leading_zeros", "01 00\n00 01", False, ("ok", I2)),
    ("leading_zero_first_token", "01 2\n3 4", False, ("ok", [[1, 2], [3, 4]])),
    ("trailing_blank_lines", "1 0\n0 1\n\n  \n", False, ("ok", I2)),
    ("blank_middle_line", "1 0\n\n0 1", False,
     ("MatrixParseError", "line 2 is blank")),
    ("leading_newline", "\n1 2", False,
     ("MatrixParseError", "line 1 is blank")),
    ("ragged", "1 2\n3", False,
     ("MatrixShapeError", "row 2 has 1 entries, expected 2")),
    ("ragged_long", "1\n2 3", False,
     ("MatrixShapeError", "row 2 has 2 entries, expected 1")),
    ("negative", "1 -2\n3 4", False,
     ("MatrixParseError", f"line 1: bad token '-2' {BAD}")),
    ("decimal", "1 2.5\n3 4", False,
     ("MatrixParseError", f"line 1: bad token '2.5' {BAD}")),
    ("letter", "a", False, ("MatrixParseError", f"line 1: bad token 'a' {BAD}")),
    ("arabic_digit", "1 \u0663\n3 4", False,
     ("MatrixParseError", f"line 1: bad token '\u0663' {BAD}")),
    ("int64_max", "9223372036854775807", True,
     ("ok", [[9223372036854775807]])),
    ("int64_max_2x2", "9223372036854775807 0\n0 1", True,
     ("DomainError", f"entries up to 9223372036854775807 with 2 {LIMIT}")),
    ("entry_limit_2x2", "4611686018427387903 0\n0 4611686018427387903", True,
     ("ok", [[4611686018427387903, 0], [0, 4611686018427387903]])),
    ("past_entry_limit_2x2", "4611686018427387904 0\n0 4611686018427387904", True,
     ("DomainError", f"entries up to 4611686018427387904 with 2 {LIMIT}")),
    ("nineteen_digits", "1000000000000000000 0\n0 1000000000000000000", True,
     ("ok", [[1000000000000000000, 0], [0, 1000000000000000000]])),
    ("two_pow_63", "9223372036854775808", False,
     ("MatrixParseError", f"line 1: token '9223372036854775808' {PAST}")),
    ("twenty_digits", "12345678901234567890", False,
     ("MatrixParseError", f"line 1: token '12345678901234567890' {PAST}")),
    ("twenty_one_digits", "123456789012345678901", False,
     ("MatrixParseError", f"line 1: token '123456789012345678901' {PAST}")),
    ("past_int_string_limit", "9" * 5000, False,
     ("MatrixParseError", "line 1: a 5000-digit token is too long")),
    ("empty", "", False, ("MatrixParseError", "empty input")),
    ("spaces_only", "   ", False, ("MatrixParseError", "empty input")),
    ("newlines_only", "\n\n", False, ("MatrixParseError", "empty input")),
    ("whitespace_only", " \n\t\n", False, ("MatrixParseError", "empty input")),
]


def plain_reference(a: IntMatrix) -> str:
    """The per-token plain renderer that the numpy one replaced."""
    return "\n".join(" ".join(map(str, r)) for r in a.array.tolist())


@st.composite
def int_matrices(draw):
    """Matrices up to 6 x 6, empty shapes included, with entries anywhere
    up to the int64 entry limit for their shape."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    top = (2**63 - 1) // max(rows, cols, 1)
    entry = st.one_of(st.integers(0, 12), st.integers(0, top), st.just(top))
    size = rows * cols
    return IntMatrix(rows, cols, draw(st.lists(entry, min_size=size, max_size=size)))


class TestPlainFormat:
    """The numpy parse and render against the per-token ones.  pyproject
    turns every warning into an error, so none may escape either."""

    @pytest.mark.parametrize(
        "text,fast,outcome",
        [row[1:] for row in PARSE_TABLE],
        ids=[row[0] for row in PARSE_TABLE],
    )
    def test_parse_matches_per_token_parser(self, text, fast, outcome):
        assert (_parse_canonical(text.rstrip("\n")) is not None) == fast
        kind, expected = outcome
        if kind == "ok":
            assert parse_matrix(text) == mat(expected)
            return
        with pytest.raises(Exception) as err:
            parse_matrix(text)
        assert type(err.value).__name__ == kind
        assert str(err.value) == expected

    # 2**63 and 10**19 have 19 and 20 digits; 2**64, 2**64 + 1 and
    # 2 * 10**19 + 1 wrap past 2**64 to 0, 1 and 1553255926290448385, so a
    # reader that kept only the low 64 bits would take them for those.
    # numpy's reader refuses every token past 2**63 - 1 with a ValueError.
    @pytest.mark.parametrize(
        "token", [2**63, 10**19, 2**64, 2**64 + 1, 2 * 10**19 + 1], ids=str
    )
    @pytest.mark.parametrize(
        "layout,line",
        [("{t}", 1), ("{t} 0\n0 {t}", 1), ("0 1\n1 {t}\n", 2)],
        ids=["1x1", "diagonal", "second_line"],
    )
    def test_token_past_int64_named(self, token, layout, line):
        text = layout.format(t=token)
        assert _parse_canonical(text.rstrip("\n")) is None
        with pytest.raises(MatrixParseError) as err:
            parse_matrix(text)
        assert str(err.value) == f"line {line}: token '{token}' {PAST}"

    def test_last_int64_token_accepted(self):
        assert parse_matrix(f"{2**63 - 1}\n").array.tolist() == [[2**63 - 1]]

    @given(int_matrices())
    def test_render_and_round_trip(self, a):
        text = serialize(a)
        assert text == plain_reference(a)
        if a.array.size:
            assert _parse_canonical(text) is not None
            assert parse_matrix(text) == a
            assert parse_matrix(text + "\n") == a

    @pytest.mark.parametrize(
        "rows,cols",
        [
            (1, 70000),
            (70000, 1),
            (_CHUNK // 1000 - 1, 1000),
            (_CHUNK // 1000, 1000),
            (_CHUNK // 1000 + 1, 1000),
            (2 * (_CHUNK // 1000) + 1, 1000),
            (3, 0),
            (0, 3),
        ],
    )
    def test_render_and_round_trip_across_chunks(self, rows, cols):
        rng = np.random.default_rng(rows * 100003 + cols)
        top = (2**63 - 1) // max(rows, cols)
        # Entries of every digit count up to the limit's, and the limit.
        shift = 10 ** rng.integers(0, 19, size=(rows, cols))
        values = rng.integers(0, top, size=(rows, cols)) // shift
        if values.size:
            values.flat[-1] = top
        a = IntMatrix(rows, cols, values)
        text = serialize(a)
        assert text == plain_reference(a)
        if a.array.size:
            assert parse_matrix(text) == a


def reference_parse(text: str) -> IntMatrix:
    """parse_matrix's contract, one line and one token at a time."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise MatrixParseError("empty input")
    rows = []
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            raise MatrixParseError(f"line {lineno} is blank")
        for tok in tokens:
            if not (tok.isascii() and tok.isdigit()):
                raise MatrixParseError(f"line {lineno}: bad token {tok!r} {BAD}")
            if int(tok) >= 2**63:
                raise MatrixParseError(f"line {lineno}: token {tok!r} {PAST}")
        rows.append([int(tok) for tok in tokens])
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise MatrixShapeError(
                f"row {i + 1} has {len(row)} entries, expected {len(rows[0])}"
            )
    return IntMatrix(len(rows), len(rows[0]), rows)


def outcome(parse, text):
    try:
        return ("ok", parse(text).array.tolist())
    except Exception as exc:
        return (type(exc).__name__, str(exc))


@st.composite
def codec_matrices(draw, least=0, side=6):
    """Matrices of least to side rows and columns, whose entries
    share one width of 1-19 digits or mix widths and the edge values 0,
    9, 10, 2**63 - 1 and the entry limit of their shape."""
    rows, cols = draw(st.integers(least, side)), draw(st.integers(least, side))
    top = (2**63 - 1) // max(rows, cols, 1)

    def of_width(w):
        low = 10 ** (w - 1) if w > 1 else 0
        return st.integers(min(low, top), min(10**w - 1, top))

    if draw(st.booleans()):
        entry = of_width(draw(st.integers(1, 19)))
    else:
        edges = [v for v in (0, 9, 10, 2**63 - 1, top) if v <= top]
        entry = st.one_of(st.sampled_from(edges), st.integers(1, 19).flatmap(of_width))
    size = rows * cols
    return IntMatrix(rows, cols, draw(st.lists(entry, min_size=size, max_size=size)))


MUTATION_BYTES = "0123456789 \n\r\t-"


class TestCodec:
    """The byte-level plain codec against per-token references."""

    @given(codec_matrices())
    def test_render_is_the_token_join_and_round_trips(self, a):
        text = serialize(a)
        assert text == plain_reference(a)
        if a.array.size:
            assert parse_matrix(text) == a

    @settings(max_examples=12)
    @given(codec_matrices(least=1, side=3))
    def test_one_byte_mutations_match_reference_parser(self, a):
        text = serialize(a)
        variants = {text[:i] + text[i + 1 :] for i in range(len(text))}
        for i in range(len(text) + 1):
            for c in MUTATION_BYTES:
                variants.add(text[:i] + c + text[i:])
                variants.add(text[:i] + c + text[i + 1 :])
        for variant in variants:
            assert outcome(parse_matrix, variant) == outcome(reference_parse, variant)

    @pytest.mark.parametrize("entries", [[1], [1, 10]], ids=["one_digit", "mixed"])
    @pytest.mark.parametrize("row", [150, 299])
    def test_moved_row_end_is_ragged(self, entries, row):
        # Swapping the LF after `row` with the space before it keeps every
        # count of spaces and LFs; only the row lengths, which numpy's reader
        # compares, show the ragged row.
        cells = (entries * 90000)[: 300 * 300]
        lines = [" ".join(map(str, cells[i : i + 300])) for i in range(0, len(cells), 300)]
        assert _parse_canonical("\n".join(lines)).ravel().tolist() == cells
        head, _, last = lines[row - 1].rpartition(" ")
        lines[row - 1 : row + 1] = [head, last + " " + lines[row]]
        text = "\n".join(lines)
        assert _parse_canonical(text) is None
        assert outcome(parse_matrix, text) == outcome(reference_parse, text) == (
            "MatrixShapeError", f"row {row} has 299 entries, expected 300"
        )

    @pytest.mark.parametrize("rows,cols", [(1, 1), (7, 1), (1, 7), (5, 6)])
    def test_one_digit_shapes(self, rows, cols):
        a = IntMatrix(rows, cols, np.arange(rows * cols) % 10)
        text = serialize(a)
        assert _parse_canonical(text).tolist() == a.array.tolist()
        assert parse_matrix(text + "\n") == a

    # Uniform wider entries fill whole (rows, cols, 2) grids too; the first
    # row's separators send them to the general path.
    @pytest.mark.parametrize("low,cols", [(10, 4), (100, 3), (100, 5)])
    def test_wide_text_of_one_digit_size(self, low, cols):
        a = IntMatrix(6, cols, low + np.arange(6 * cols) * 7 % (9 * low))
        assert _parse_canonical(serialize(a)).tolist() == a.array.tolist()

    # One byte changed in each slot class of one-digit text: the digit slots,
    # the spaces and the row-end LFs.  "/" and ":" sit just outside "0"-"9";
    # NBSP splits tokens and U+2028 splits lines in the token path, and CR
    # does both, so those give a matrix there.
    @pytest.mark.parametrize("rows,cols", [(1, 1), (7, 1), (1, 7), (5, 6)])
    def test_one_byte_changes_match_token_path(self, rows, cols):
        text = serialize(IntMatrix(rows, cols, (np.arange(rows * cols) * 7 + 3) % 10))

        def put(i, c):
            return text[:i] + c + text[i + 1 :]

        end = len(text) - 1
        changed = {
            "slash in a digit slot": put(end, "/"),
            "colon in a digit slot": put(end, ":"),
            "letter in a digit slot": put(0, "x"),
            "non-ASCII digit": put(0, "\u0663"),
            "CR after the last digit": text + "\r",
            "two-digit last token": put(end, "1" + text[end]),
            "leading zero in the last token": put(end, "0" + text[end]),
        }
        space, lf = text.rfind(" "), text.find("\n")
        if space > 0:
            changed["LF for a space"] = put(space, "\n")
            changed["CR for a space"] = put(space, "\r")
            changed["NBSP for a space"] = put(space, "\u00a0")
            changed["short last row"] = text[:space]
        if lf > 0:
            changed["space for an LF"] = put(lf, " ")
            changed["CR for an LF"] = put(lf, "\r")
            changed["CRLF for an LF"] = put(lf, "\r\n")
            changed["U+2028 for an LF"] = put(lf, "\u2028")
        if lf > 1:  # the row's last space and its LF change places
            changed["space and LF swapped"] = put(lf - 2, "\n")[: lf] + " " + text[lf + 1 :]
        for name, variant in changed.items():
            assert variant != text, name
            got = outcome(parse_matrix, variant)
            assert got == outcome(reference_parse, variant), name

    def test_peak_memory_stays_chunked(self):
        # One pass may hold the text, the int64 result and chunk-sized
        # temporaries, but no int64 array the size of the matrix beyond it.
        a = random_ds(30, 1100, seed=5).matrix
        assert int(a.array.max()) <= 9
        text = serialize(a)
        limit = len(text) + 8 * a.array.size + 4 * 2**20
        tracemalloc.start()
        try:
            serialize(a)
            render_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            parsed = parse_matrix(text)
            parse_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed == a
        assert render_peak < limit and parse_peak < limit, (render_peak, parse_peak, limit)


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
        doc = structured_doc(mat([[1, 2], [3, 4]]))
        assert doc == {"rows": 2, "cols": 2, "entries": [1, 2, 3, 4]}

    def test_structured_carries_m_for_members(self):
        doc = structured_doc(validate_ds(M5_SUM7))
        assert doc["m"] == 7
        assert doc["rows"] == doc["cols"] == 5

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
    def test_empty_submatrix_allowed(self):
        block = mat([[1, 2], [3, 4]]).array[np.ix_([], [0, 1])]
        sub = IntMatrix(*block.shape, block)
        assert sub.rows == 0 and sub.cols == 2

    def test_bad_entry_count(self):
        with pytest.raises(MatrixShapeError):
            IntMatrix(2, 2, (1, 2, 3))

    def test_negative_entry(self):
        with pytest.raises(MatrixParseError, match="^entry 1 is negative: -1$"):
            IntMatrix(1, 2, (1, -1))

    def test_signature_has_no_defaults(self):
        params = inspect.signature(IntMatrix).parameters
        assert list(params) == ["rows", "cols", "entries"]
        assert all(p.default is inspect.Parameter.empty for p in params.values())
        with pytest.raises(TypeError, match="entries"):
            IntMatrix(2, 2)

    def test_read_only_view_is_copied(self):
        # A read-only view still changes with its writable base.
        arr = np.array([[1, 2], [3, 4]], dtype=np.int64)
        view = arr.view()
        view.flags.writeable = False
        assert not np.shares_memory(IntMatrix(2, 2, view).array, arr)

    def test_public_constructor_copies(self):
        # The caller's array stays its own: writable, and not seen through.
        arr = np.array([[1, 2], [3, 4]], dtype=np.int64)
        a = IntMatrix(2, 2, arr)
        assert arr.flags.writeable
        arr[0, 0] = 7
        assert a.array.tolist() == [[1, 2], [3, 4]]
        assert not np.shares_memory(a.array, arr)

    def test_adopt_keeps_a_fresh_array_after_the_same_checks(self):
        arr = np.array([[1, 2], [3, 4]], dtype=np.int64)
        a = IntMatrix._adopt(arr)
        assert np.shares_memory(a.array, arr) and not a.array.flags.writeable
        assert a == mat([[1, 2], [3, 4]])
        with pytest.raises(MatrixParseError, match="^entry 3 is negative: -2$"):
            IntMatrix._adopt(np.array([[1, 2], [0, -2]]))
        with pytest.raises(DomainError, match="2\\*\\*63 - 1"):
            IntMatrix._adopt(np.array([[2**62, 0], [0, 2**62]]))
        with pytest.raises(MatrixParseError, match="integers"):
            IntMatrix._adopt(np.ones((2, 2)))

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
        assert a.array.sum(axis=1).tolist() == [top, top]
        assert IntMatrix(1, 1, (2**63 - 1,)).array[0, 0] == 2**63 - 1

    def test_array_is_read_only(self):
        a = mat([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            a.array[0, 0] = 7
        assert a.array[0, 0] == 1


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
