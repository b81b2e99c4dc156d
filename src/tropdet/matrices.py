"""Core matrix types and the plain-text / structured interchange formats.

The central domain is D(m, n): square n-by-n matrices of non-negative
integers in which every row and every column sums to the same value m.
``validate_ds`` is the certifying entry point into that domain; the rest of
the package passes ``DSMatrix`` values around instead of re-checking line
sums everywhere.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .errors import (
    DomainError,
    LineSumError,
    MatrixParseError,
    MatrixShapeError,
    _shown,
)

__all__ = [
    "IntMatrix",
    "DSMatrix",
    "SplitParams",
    "parse_matrix",
    "serialize",
    "validate_ds",
    "split",
]


def check_entry_limit(max_entry: int, side: int) -> None:
    """Refuse entries whose line and transversal sums could leave int64.

    Every such sum has at most ``side`` terms, so ``max_entry * side`` within
    2**63 - 1 keeps all of them exact.
    """
    if max_entry * side > 2**63 - 1:
        raise DomainError(
            f"entries up to {max_entry} with {side} per line can sum past "
            f"the int64 limit: need max entry * max(rows, cols) <= 2**63 - 1"
        )


# The most cells of a structure built from (m, n) alone: an n x n array peaks
# near 17 bytes a cell, so about 0.4 GB at this limit; count_D's row pool is
# int64, 8 bytes a cell, and its build peaks near 4 times that: 0.8 GB.
_MAX_CELLS = 25_000_000


def _full(n: int, fill: int, top: int) -> np.ndarray:
    """An n x n int64 array of fill for entries up to top, refused before it
    is allocated past check_entry_limit or past _MAX_CELLS cells."""
    check_entry_limit(top, n)
    if n * n > _MAX_CELLS:
        raise DomainError(f"an n x n matrix needs n * n <= {_MAX_CELLS}, got n = {n}")
    return np.full((n, n), fill, dtype=np.int64)


@dataclass(frozen=True, eq=False, init=False)
class IntMatrix:
    """Immutable matrix of non-negative integers held as one read-only int64
    array, ``array``.  Built as ``IntMatrix(rows, cols, entries)`` from any
    row-major array-like of rows * cols integers, copied unless it is a
    read-only int64 array that owns its data.

    Entries are capped so that max entry * max(rows, cols) <= 2**63 - 1,
    which keeps every line and transversal sum exact in int64.  Zero rows or
    columns are legal (blocks cut out of a larger matrix may be empty);
    parsing, by contrast, never produces an empty matrix.
    """

    array: np.ndarray

    def __init__(self, rows: int, cols: int, entries: ArrayLike):
        if rows < 0 or cols < 0:
            raise MatrixShapeError(f"negative dimensions {rows}x{cols}")
        raw = np.asarray(entries)
        if raw.size != rows * cols:
            raise MatrixShapeError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, "
                f"got {raw.size}"
            )
        raw = raw.reshape(rows, cols)
        if raw.size:
            if raw.dtype.kind not in "iu":
                raise MatrixParseError(
                    "entries must be integers in [0, 2**63 - 1], "
                    f"got {raw.dtype} values"
                )
            if raw.min() < 0:
                k = int(np.argmax(raw.ravel() < 0))
                raise MatrixParseError(f"entry {k} is negative: {raw.flat[k]}")
            check_entry_limit(int(raw.max()), max(rows, cols))
        # A read-only array that owns its data changes only if its holder
        # makes it writable again, so it is kept as it is, not copied.
        kept = isinstance(entries, np.ndarray) and entries.flags.owndata
        kept = kept and not entries.flags.writeable
        array = raw.astype(np.int64, copy=not kept)
        array.flags.writeable = False
        object.__setattr__(self, "array", array)

    @classmethod
    def _adopt(cls, array: np.ndarray) -> IntMatrix:
        """IntMatrix of a fresh 2-D array nothing else writes: checked, not copied."""
        array.flags.writeable = False
        return cls(*array.shape, array)

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    @property
    def entries(self) -> tuple[int, ...]:
        """Row-major entries as Python ints."""
        return tuple(self.array.ravel().tolist())

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash((self.array.shape, self.array.tobytes()))


@dataclass(frozen=True)
class DSMatrix:
    """A certified member of D(m, n).  Construction re-checks the line sums,
    so holding a DSMatrix is itself the membership certificate."""

    matrix: IntMatrix
    m: int

    def __post_init__(self):
        _check_membership(self.matrix, self.m)

    @property
    def n(self) -> int:
        return self.matrix.rows


@dataclass(frozen=True)
class SplitParams:
    """The division m = q*n + r with 0 <= r < n that drives every bound."""

    m: int
    n: int
    q: int
    r: int


def split(m: int, n: int) -> SplitParams:
    """Divide the line sum by the matrix order: m = q*n + r, 0 <= r < n."""
    if m < 1 or n < 1:
        raise DomainError(f"need m >= 1 and n >= 1, got m={_shown(m)} n={_shown(n)}")
    q, r = divmod(m, n)
    return SplitParams(m=m, n=n, q=q, r=r)


def _check_membership(matrix: IntMatrix, m: int) -> None:
    if matrix.rows != matrix.cols:
        raise MatrixShapeError(
            f"not square: {matrix.rows}x{matrix.cols}"
        )
    if matrix.rows < 1:
        raise MatrixShapeError("empty matrix cannot be doubly stochastic")
    # Rows are compared against row 0, columns against column 0.  Equal rows
    # and equal columns force the two reference sums to agree (both equal the
    # total divided by n), so only the cross-check against m remains.
    row_sums = matrix.array.sum(axis=1)
    col_sums = matrix.array.sum(axis=0)
    for axis, sums in (("row", row_sums), ("column", col_sums)):
        off = (sums != sums[0]).nonzero()[0]
        if off.size:
            k = int(off[0])
            raise LineSumError(axis, k, int(sums[k]), int(sums[0]))
    if int(row_sums[0]) != m:
        raise LineSumError("row", 0, int(row_sums[0]), m)


def validate_ds(matrix: IntMatrix) -> DSMatrix:
    """Certify membership in D(m, n), inferring m from the first row.

    Raises MatrixShapeError for non-square input and LineSumError naming the
    first offending row or column otherwise.
    """
    return DSMatrix(matrix=matrix, m=int(matrix.array[:1].sum()))


# Powers 10**1 .. 10**18: an int64 entry has one digit more than the
# number of these it reaches.
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)
# Entries rendered or certified per pass: each int64 temporary stays near
# 0.5 MB.  A parse is left to numpy's reader, which sizes its own buffers.
_CHUNK = 1 << 16


def _render_rows(a: np.ndarray) -> str:
    """Canonical text of a non-empty int64 block: single spaces, LF rows."""
    flat = a.ravel()
    wide = len(str(int(flat.max())))
    if len(str(int(flat.min()))) == wide:
        # One width: entry k and its separator fill row k of buf.
        buf = np.full((flat.size, wide + 1), ord(" "), dtype=np.uint8)
        buf[a.shape[1] - 1 :: a.shape[1], wide] = ord("\n")
        v = flat
        for k in range(wide - 1, 0, -1):
            q = v // 10
            np.add(v - 10 * q, ord("0"), out=buf[:, k], casting="unsafe")
            v = q
        np.add(v, ord("0"), out=buf[:, 0], casting="unsafe")
        return buf.ravel()[:-1].tobytes().decode("ascii")
    ndig = np.searchsorted(_POW10[: wide - 1], flat, side="right") + 1
    ends = np.cumsum(ndig + 1)  # one past each entry's trailing separator
    buf = np.full(int(ends[-1]) - 1, ord(" "), dtype=np.uint8)
    buf[ends[a.shape[1] - 1 : -1 : a.shape[1]] - 1] = ord("\n")
    # Digits go in right to left.  Every entry has at least `sure` of
    # them; past that, entries whose quotient reached 0 are dropped.
    # (np.divmod on int64 is several times slower than // here.)
    v, pos, sure = flat, ends - 2, int(ndig.min())
    while v.size:
        q = v // 10
        buf[pos] = v - 10 * q + ord("0")
        pos -= 1
        sure -= 1
        if sure > 0:
            v = q
        else:
            live = np.flatnonzero(q > 0)
            v, pos = q[live], pos[live]
    return buf.tobytes().decode("ascii")


def _render(a: np.ndarray) -> str:
    """Plain text of an int64 matrix, rendered a chunk of rows at a time."""
    rows, cols = a.shape
    if a.size == 0:
        return "\n" * max(rows - 1, 0)
    step = max(1, _CHUNK // cols)
    return "\n".join(_render_rows(a[i : i + step]) for i in range(0, rows, step))


def _parse_canonical(body: str) -> np.ndarray | None:
    """Entries of canonical text (single spaces, LF rows, decimals without
    leading zeros up to 2**63 - 1), or None for any other text.

    All checks run on the encoded bytes.  One-digit text is tried first,
    by its shape alone: the first LF fixes cols, and the text must be
    rows x cols pairs of a digit and a space, LF at each row's end.  Other
    text goes to numpy's reader once the two rules it does not enforce
    hold: no separator first, and no 0 that starts a longer token.  The
    reader refuses doubled, leading or trailing spaces, ragged rows and
    tokens past 2**63 - 1; it skips blank lines, which the row count
    catches.
    """
    # Non-ASCII turns into "?", which no check below lets through.
    b = body.encode("ascii", "replace") + b"\n"  # each token ends in a separator
    u = np.frombuffer(b, dtype=np.uint8)
    first = b.index(b"\n") + 1  # 2 * cols, if the text is one-digit
    # The first row's separators turn most other text away before the grid.
    if u.size % first == 0 and b[1:first:2] == b" " * (first // 2 - 1) + b"\n":
        grid = u.reshape(-1, first // 2, 2)  # one digit, then its separator
        if (grid[:, :-1, 1] == ord(" ")).all() and (grid[:, -1, 1] == ord("\n")).all():
            digits = grid[..., 0] - ord("0")  # uint8: bytes below "0" wrap past 9
            if (digits <= 9).all():
                return digits
    if b.translate(None, b"0123456789 \n"):
        return None
    # The first-byte check also keeps whitespace-only text, on which the
    # reader warns, away from it.
    lead = (u[:-1] == ord("0")) & (u[1:] >= ord("0"))  # a 0 before a digit ...
    lead[1:] &= u[:-2] < ord("0")  # ... that starts its token
    if u[0] < ord("0") or lead.any():
        return None
    try:
        out = np.loadtxt(io.BytesIO(b), np.int64, delimiter=" ", ndmin=2, encoding="latin1")
    except ValueError:
        return None
    return out if len(out) == b.count(b"\n") else None


def parse_matrix(text: str) -> IntMatrix:
    """Parse the plain interchange format.

    One matrix row per line, entries are decimal non-negative integers
    separated by whitespace.  LF and CRLF both work; trailing blank lines
    are ignored.  Anything else (empty input, ragged rows, negative or
    non-integer tokens, tokens past 2**63 - 1) raises.  Canonical text, as
    ``serialize`` writes it, is checked byte-wise and converted by numpy;
    any other text goes token by token, and only that path words the
    errors.
    """
    fast = _parse_canonical(text.rstrip("\n"))
    if fast is not None:
        return IntMatrix._adopt(fast)
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise MatrixParseError("empty input")
    rows: list[list[int]] = []
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            raise MatrixParseError(f"line {lineno} is blank")
        row = []
        for tok in tokens:
            if not (tok.isascii() and tok.isdigit()):
                raise MatrixParseError(
                    f"line {lineno}: bad token {tok!r} "
                    "(decimal non-negative integers only)"
                )
            try:
                value = int(tok)
            except ValueError:  # past the interpreter's int string limit
                raise MatrixParseError(
                    f"line {lineno}: a {len(tok)}-digit token is too long"
                )
            if value > 2**63 - 1:
                raise MatrixParseError(
                    f"line {lineno}: token {tok!r} is past 2**63 - 1"
                )
            row.append(value)
        rows.append(row)
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise MatrixShapeError(
                f"row {i + 1} has {len(row)} entries, expected {width}"
            )
    return IntMatrix(len(rows), width, rows)


def structured_doc(matrix: IntMatrix | DSMatrix) -> dict:
    """The structured format as a dict: rows, cols, the row-major entries,
    and m when the input is a certified DSMatrix."""
    a = matrix.matrix.array if isinstance(matrix, DSMatrix) else matrix.array
    doc: dict = {"rows": a.shape[0], "cols": a.shape[1], "entries": a.ravel().tolist()}
    if isinstance(matrix, DSMatrix):
        doc["m"] = matrix.m
    return doc


def serialize(matrix: IntMatrix | DSMatrix) -> str:
    """Render a matrix in the plain format, which round-trips through
    parse_matrix."""
    a = matrix.matrix.array if isinstance(matrix, DSMatrix) else matrix.array
    return _render(a)
