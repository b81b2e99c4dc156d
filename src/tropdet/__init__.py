"""Tropical determinants of integer doubly-stochastic matrices.

D(m, n) is the set of n x n non-negative integer matrices whose rows and
columns all sum to m.  This package evaluates the sharp range of the
maximum transversal sum (tdet) and minimum transversal sum (tropdet) over
D(m, n), builds matrices attaining the extremes, and provides exact
solvers, threshold-block analysis, exhaustive counting and search, and a CLI.
"""

from .assignment import (
    Certificate,
    Transversal,
    check_certificate,
    tdet,
    tropdet,
)
from .blocks import (
    BlockDecomposition,
    has_transversal_above,
    largest_low_block,
    max_matching_above,
)
from .bounds import (
    BoundsResult,
    CaseTag,
    lower_bound_L,
    rubik_answer,
    smallest_l,
    upper_bound_U,
)
from .construct import (
    BlockPlan,
    construct_max_tropdet,
    construct_min_tdet,
    extremal_certificate,
    plan_hard_case,
)
from .enumerate_ds import (
    DEFAULT_VISIT_BUDGET,
    EnumStats,
    brute_L,
    brute_U,
    count_D,
    random_ds,
)
from .errors import (
    BudgetExceededError,
    CertificateError,
    DomainError,
    LineSumError,
    MatrixParseError,
    MatrixShapeError,
    TropdetError,
)
from .matrices import (
    DSMatrix,
    IntMatrix,
    SplitParams,
    parse_matrix,
    serialize,
    split,
    validate_ds,
)

__version__ = "0.1.0"

__all__ = [
    "BlockDecomposition",
    "BlockPlan",
    "BoundsResult",
    "BudgetExceededError",
    "CaseTag",
    "Certificate",
    "CertificateError",
    "DEFAULT_VISIT_BUDGET",
    "DSMatrix",
    "DomainError",
    "EnumStats",
    "IntMatrix",
    "LineSumError",
    "MatrixParseError",
    "MatrixShapeError",
    "SplitParams",
    "Transversal",
    "TropdetError",
    "brute_L",
    "brute_U",
    "check_certificate",
    "construct_max_tropdet",
    "construct_min_tdet",
    "count_D",
    "extremal_certificate",
    "has_transversal_above",  # called by bench/'s sweep and large_n ops
    "largest_low_block",
    "lower_bound_L",
    "max_matching_above",
    "parse_matrix",
    "plan_hard_case",
    "random_ds",
    "rubik_answer",
    "serialize",
    "smallest_l",
    "split",
    "tdet",
    "tropdet",
    "upper_bound_U",
    "validate_ds",
]
