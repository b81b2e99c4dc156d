"""Error messages print every integer, however large, without passing
Python's int-string limit."""

import sys

import pytest

from tropdet import BudgetExceededError, DomainError, count_D, random_ds
from tropdet.errors import _shown


@pytest.fixture
def no_str_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


# Around the switch to "a D-digit number" and the powers of ten where the
# digit estimate from bit_length must be corrected.
EDGE_VALUES = [
    0, 7, 10**3913, 2**13000 - 1, 2**13000, 10**3914 - 1, 10**3914, 10**4299,
    10**4300 - 1, 10**4300, 2**14000, 10**20000 - 1, 10**20000, 10**20000 + 1,
]


def test_shown_counts_digits(no_str_limit):
    for value in EDGE_VALUES:
        for v in (value, -value):
            if abs(v).bit_length() <= 13000:  # at most 3914 digits
                assert _shown(v) == str(v)
            else:
                sign = "negative " if v < 0 else ""
                assert _shown(v) == f"a {len(str(abs(v)))}-digit {sign}number"


def test_budget_message_near_int_string_limit():
    m = 10**4300 - 1
    with pytest.raises(BudgetExceededError) as err:
        count_D(m, 3)
    assert err.value.members == m + 1  # exact: C(m + 1, 1) first rows
    assert str(err.value) == (
        "enumeration budget exceeded: at least a 4301-digit number members "
        "(budget 50000000)"
    )


def test_polynomial_refusal_past_int_string_limit():
    with pytest.raises(BudgetExceededError) as err:
        count_D(10**1100, 5, budget=10**5000)
    assert err.value.budget == 10**5000
    assert str(err.value) == (
        "enumeration budget exceeded: at least a 17594-digit number members "
        "(budget a 5001-digit number)"
    )


@pytest.mark.parametrize(
    "call",
    [lambda: count_D(-(10**5000), 3), lambda: random_ds(10**5000, 1)],
    ids=["split", "random"],
)
def test_domain_messages_past_int_string_limit(call):
    with pytest.raises(DomainError, match="a 5001-digit"):
        call()
