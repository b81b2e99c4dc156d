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
            f"{axis} {index} sums to {total}, expected {expected}"
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
            f"enumeration budget exceeded: at least {members} members "
            f"(budget {budget})"
        )
