"""Shared example matrices and hypothesis configuration.

The matrices below are small members of D(m, n) with known transversal
extremes, used across the suite as fixed reference points.
"""

import numpy as np
from hypothesis import settings

from tropdet import IntMatrix

settings.register_profile("package", deadline=None, derandomize=True)
settings.load_profile("package")


def mat(rows) -> IntMatrix:
    a = np.asarray(rows)
    return IntMatrix(*a.shape, a)


# 5x5, line sums 7, tdet 9.
M5_SUM7 = mat(
    [
        [1, 0, 2, 2, 2],
        [0, 1, 2, 2, 2],
        [2, 2, 1, 1, 1],
        [2, 2, 1, 1, 1],
        [2, 2, 1, 1, 1],
    ]
)

# 6x6 zero-one circulant, line sums 4, tdet 6.
CIRCULANT_4_6 = mat(
    [
        [1, 1, 1, 1, 0, 0],
        [0, 1, 1, 1, 1, 0],
        [0, 0, 1, 1, 1, 1],
        [1, 0, 0, 1, 1, 1],
        [1, 1, 0, 0, 1, 1],
        [1, 1, 1, 0, 0, 1],
    ]
)

CIRCULANT_4_6_TEXT = """\
1 1 1 1 0 0
0 1 1 1 1 0
0 0 1 1 1 1
1 0 0 1 1 1
1 1 0 0 1 1
1 1 1 0 0 1
"""

# 6x6, line sums 7, tdet 10 (block witness for the hard case of L(7,6)).
M6_SUM7 = mat(
    [
        [1, 0, 2, 1, 2, 1],
        [0, 1, 1, 2, 1, 2],
        [2, 1, 1, 1, 1, 1],
        [1, 2, 1, 1, 1, 1],
        [2, 1, 1, 1, 1, 1],
        [1, 2, 1, 1, 1, 1],
    ]
)

# 6x6, line sums 9, tdet 12 (six colors, nine stickers per face).
RUBIK_6X6 = mat(
    [
        [1, 1, 1, 2, 2, 2],
        [1, 1, 1, 2, 2, 2],
        [1, 1, 1, 2, 2, 2],
        [2, 2, 2, 1, 1, 1],
        [2, 2, 2, 1, 1, 1],
        [2, 2, 2, 1, 1, 1],
    ]
)

# 5x5, line sums 6, tdet 8 (hard-case witness for L(6,5) with a 3x4
# constant block).
M5_SUM6 = mat(
    [
        [0, 1, 2, 1, 2],
        [0, 2, 1, 2, 1],
        [2, 1, 1, 1, 1],
        [2, 1, 1, 1, 1],
        [2, 1, 1, 1, 1],
    ]
)
