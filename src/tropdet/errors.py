"""Exception types shared across the package.

Everything raised here derives from TropdetError so callers (and the CLI)
can catch one base class.  Subclasses also derive from the matching builtin
(ValueError / RuntimeError) so generic handling keeps working.
"""

from __future__ import annotations

__all__ = [
    "TropdetError",
    "MatrixParseError",
    "MatrixShapeError",
    "LineSumError",
    "DomainError",
    "CertificateError",
    "BudgetExceededError",
]


def _shown(value: int) -> str:
    """An integer as a message prints it: "a D-digit number" past 3914
    digits, where Python's int-string limit could refuse it."""
    if abs(value).bit_length() <= 13_000:  # 2^13000 < 10^3914
        return str(value)
    digits = int((abs(value).bit_length() - 1) * 0.30102999566398120) + 1
    digits += abs(value) >= 10**digits  # log10(2) estimate: one short at most
    return f"a {digits}-digit {'negative ' if value < 0 else ''}number"


class TropdetError(Exception):
    """Base class for every error raised by this package."""


class MatrixParseError(TropdetError, ValueError):
    """Input text is not a well-formed matrix (bad token, empty input)."""


class MatrixShapeError(TropdetError, ValueError):
    """Matrix has the wrong shape for the requested operation."""


class LineSumError(TropdetError, ValueError):
    """A row or column sum breaks the doubly-stochastic requirement."""

    def __init__(self, axis: str, index: int, total: int, expected: int):
        self.axis = axis
        self.index = index
        self.total = total
        self.expected = expected
        super().__init__(
            f"{axis} {index} sums to {_shown(total)}, expected {_shown(expected)}"
        )


class DomainError(TropdetError, ValueError):
    """Arguments are outside the mathematical domain of the operation."""


class CertificateError(TropdetError, ValueError):
    """An optimality certificate failed its exact check."""


class BudgetExceededError(TropdetError, RuntimeError):
    """An enumeration ran past its member budget.

    ``members`` is a proven lower bound on |D(m, n)| that passed the
    budget, and what the message reports.
    """

    def __init__(self, budget: int, members: int):
        self.budget = budget
        self.members = members
        super().__init__(
            f"enumeration budget exceeded: at least {_shown(members)} members "
            f"(budget {_shown(budget)})"
        )
