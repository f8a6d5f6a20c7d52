"""Directed-rounding helpers that keep certified bounds from under-reporting."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ChargeReference
from gammatheta.fputil import GUARD, ceil_float, up


# The evaluators add their rounding-error charges to a plain float; the radius
# tests in test_lngamma and test_theta compare those radii bit for bit with
# ChargeReference, so its charge rule is pinned here.
def test_accumulator_charges_scale_with_magnitude_and_ops():
    acc = ChargeReference()
    acc.charge(1.0, ops=1)
    one = acc.total
    assert one == 2 * math.ulp(1.0)
    acc.charge(1.0, ops=3)
    assert acc.total == pytest.approx(one + 3 * one, rel=1e-12)
    big = ChargeReference()
    big.charge(1e10, ops=1)
    assert big.total == pytest.approx(2 * math.ulp(1e10), rel=1e-12)


def test_accumulator_ignores_non_finite_and_clamps_tiny_magnitudes():
    acc = ChargeReference()
    acc.charge(math.inf, ops=1)
    acc.charge(math.nan, ops=1)
    assert acc.total == 0.0
    acc.charge(0.0, ops=1)
    assert acc.total > 0.0  # charged at the 1e-300 floor, not zero


def test_guard_factor_is_a_hair_above_one():
    assert 1.0 < GUARD < 1.0 + 1e-11


def test_up_never_decreases_nonnegative_values():
    for x in (0.0, 1e-300, 1.0, 3.7, 1e300):
        assert up(x) >= x
        assert up(x, chains=5) >= up(x)


def test_up_inflates_by_the_expected_relative_amount():
    x = 123.456
    assert up(x) == pytest.approx(x * GUARD, rel=1e-15)
    assert up(x, chains=3) == pytest.approx(x * GUARD**3, rel=1e-15)


@settings(max_examples=100, deadline=None)
@given(
    num=st.integers(min_value=1, max_value=10**40),
    den=st.integers(min_value=1, max_value=10**40),
)
def test_ceil_float_is_the_smallest_double_at_or_above(num, den):
    value = Fraction(num, den)
    f = ceil_float(value)
    assert Fraction(f) >= value
    below = math.nextafter(f, -math.inf)
    assert Fraction(below) < value


def test_ceil_float_is_exact_on_representable_values():
    assert ceil_float(Fraction(3, 4)) == 0.75
    assert ceil_float(Fraction(1, 3)) > 1 / 3
    assert ceil_float(2**60) == float(2**60)


def test_ceil_float_saturates_to_infinity():
    assert ceil_float(Fraction(10) ** 400) == math.inf
