from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tnnflag.algebra import (
    TROP_INF, Trop, rat_from_str, rat_to_str, trop_from_str, trop_to_str,
)
from tnnflag.oracle import LaurentMonomial

rationals = st.fractions(min_value=-100, max_value=100)


@given(rationals)
def test_rational_string_roundtrip(x):
    assert rat_from_str(rat_to_str(x)) == x


def test_rational_parsing():
    assert rat_from_str("3/6") == Fraction(1, 2)
    assert rat_to_str(Fraction(4, 2)) == "2"
    assert rat_to_str(Fraction(-1, 3)) == "-1/3"


def test_trop_infinity():
    assert TROP_INF.is_inf
    assert trop_from_str("inf").is_inf
    assert trop_to_str(TROP_INF) == "inf"
    assert (TROP_INF * Trop.of(5)).is_inf
    assert min(TROP_INF, Trop.of(3)) == Trop.of(3)
    with pytest.raises(ZeroDivisionError):
        Trop.of(1) / TROP_INF


@given(rationals, rationals)
def test_trop_semiring(x, y):
    a, b = Trop.of(x), Trop.of(y)
    assert (a * b).value == x + y
    assert min(a, b).value == min(x, y)
    assert (a / b).value == x - y
    assert a.scale(3).value == 3 * x


def test_trop_scale_of_infinity():
    assert TROP_INF.scale(2).is_inf
    # inf ** 0 = 0 tropically: the empty product
    assert TROP_INF.scale(0) == Trop.of(0)


def test_monomial_arithmetic():
    m = LaurentMonomial(Fraction(2), {"x": 1, "y": -1})
    one = m / m
    assert one.coefficient == 1 and one.exponents == {}


def test_monomial_drops_zero_exponents():
    m = LaurentMonomial(Fraction(1), {"x": 0, "y": 2})
    assert m.exponents == {"y": 2}
    with pytest.raises(ValueError):
        LaurentMonomial(Fraction(0), {})


@pytest.mark.parametrize("text", ["1e3", "2E-1", "1.5e0", "-1e10000000"])
def test_exponent_notation_is_rejected(text):
    with pytest.raises(ValueError, match="exponent notation"):
        rat_from_str(text)
    with pytest.raises(ValueError, match="exponent notation"):
        trop_from_str(text)


def test_decimals_are_still_read():
    assert rat_from_str(" 1.25 ") == Fraction(5, 4)
    assert trop_from_str("-0.5") == Trop(Fraction(-1, 2))
