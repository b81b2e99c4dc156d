"""Tropical determinants of integer doubly-stochastic matrices.

D(m, n) is the set of n x n non-negative integer matrices whose rows and
columns all sum to m.  This package evaluates the sharp range of the
maximum transversal sum (tdet) and minimum transversal sum (tropdet) over
D(m, n), builds matrices attaining the extremes, and provides exact
solvers, threshold-block analysis, exhaustive counting and search, and a CLI.
"""

from .assignment import *
from .blocks import *
from .bounds import *
from .construct import *
from .enumerate_ds import *
from .errors import *
from .matrices import *

__version__ = "0.1.0"

# Each module declares its public names once; the package is their union.
__all__ = (
    assignment.__all__
    + blocks.__all__
    + bounds.__all__
    + construct.__all__
    + enumerate_ds.__all__
    + errors.__all__
    + matrices.__all__
)
