"""Core matrix types and the plain-text / structured interchange formats.

The central domain is D(m, n): square n-by-n matrices of non-negative
integers in which every row and every column sums to the same value m.
``validate_ds`` is the certifying entry point into that domain; the rest of
the package passes ``DSMatrix`` values around instead of re-checking line
sums everywhere.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field
from typing import Iterable, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .errors import (
    DomainError,
    LineSumError,
    MatrixParseError,
    MatrixShapeError,
)

__all__ = [
    "IntMatrix",
    "DSMatrix",
    "SplitParams",
    "check_entry_limit",
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


@dataclass(frozen=True, eq=False)
class IntMatrix:
    """Immutable matrix of non-negative integers held as one read-only int64
    array, ``array``.  Built as ``IntMatrix(rows, cols, entries)`` from any
    row-major array-like of rows * cols integers.

    Entries are capped so that max entry * max(rows, cols) <= 2**63 - 1,
    which keeps every line and transversal sum exact in int64.  Zero rows or
    columns are legal (blocks cut out of a larger matrix may be empty);
    parsing, by contrast, never produces an empty matrix.
    """

    # The init-only arguments share their names with the read-only
    # properties below, which dataclass then lists as their defaults.
    rows: InitVar[int]
    cols: InitVar[int]
    entries: InitVar[ArrayLike]
    array: np.ndarray = field(init=False)

    def __post_init__(self, rows: int, cols: int, entries: ArrayLike):
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
            negative = (raw < 0).ravel().nonzero()[0]
            if negative.size:
                k = int(negative[0])
                raise MatrixParseError(f"entry {k} is negative: {raw.flat[k]}")
            check_entry_limit(int(raw.max()), max(rows, cols))
        array = raw.astype(np.int64)  # always a private copy
        array.flags.writeable = False
        object.__setattr__(self, "array", array)

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

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = [list(r) for r in rows]
        if not rows:
            raise MatrixShapeError("no rows given")
        width = len(rows[0])
        for i, r in enumerate(rows):
            if len(r) != width:
                raise MatrixShapeError(
                    f"row {i} has {len(r)} entries, expected {width}"
                )
        return cls(len(rows), width, rows)

    def at(self, i: int, j: int) -> int:
        return int(self.array[i, j])

    def row_sums(self) -> tuple[int, ...]:
        return tuple(self.array.sum(axis=1).tolist())

    def col_sums(self) -> tuple[int, ...]:
        return tuple(self.array.sum(axis=0).tolist())

    def submatrix(
        self, row_idx: Iterable[int], col_idx: Iterable[int]
    ) -> "IntMatrix":
        """Matrix restricted to (and reordered by) the given index lists."""
        block = self.array[np.ix_(list(row_idx), list(col_idx))]
        return IntMatrix(*block.shape, block)

    def to_nested(self) -> list[list[int]]:
        return self.array.tolist()


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

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise DomainError(f"need m >= 1 and n >= 1, got m={self.m} n={self.n}")
        if not (0 <= self.r < self.n) or self.q * self.n + self.r != self.m:
            raise DomainError(
                f"inconsistent split m={self.m} n={self.n} q={self.q} r={self.r}"
            )


def split(m: int, n: int) -> SplitParams:
    """Divide the line sum by the matrix order: m = q*n + r, 0 <= r < n."""
    if m < 1 or n < 1:
        raise DomainError(f"need m >= 1 and n >= 1, got m={m} n={n}")
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


def parse_matrix(text: str) -> IntMatrix:
    """Parse the plain interchange format.

    One matrix row per line, entries are decimal non-negative integers
    separated by whitespace.  LF and CRLF both work; trailing blank lines
    are ignored.  Anything else (empty input, ragged rows, negative or
    non-integer tokens) raises.
    """
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
            row.append(int(tok))
        rows.append(row)
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise MatrixShapeError(
                f"row {i + 1} has {len(row)} entries, expected {width}"
            )
    return IntMatrix(len(rows), width, rows)


def serialize(matrix: IntMatrix | DSMatrix, fmt: str = "plain") -> str:
    """Render a matrix in the plain or structured (JSON) format.

    Plain output round-trips through parse_matrix.  Structured output
    carries rows, cols and the row-major entries, plus m when the input is
    a certified DSMatrix.
    """
    m: int | None = None
    if isinstance(matrix, DSMatrix):
        m = matrix.m
        matrix = matrix.matrix
    if fmt == "plain":
        return "\n".join(" ".join(map(str, row)) for row in matrix.to_nested())
    if fmt == "structured":
        doc: dict = {
            "rows": matrix.rows,
            "cols": matrix.cols,
            "entries": matrix.array.ravel().tolist(),
        }
        if m is not None:
            doc["m"] = m
        return json.dumps(doc)
    raise DomainError(f"unknown format {fmt!r} (expected 'plain' or 'structured')")
