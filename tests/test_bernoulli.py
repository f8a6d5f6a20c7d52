"""Exact Bernoulli machinery: numbers, polynomials, periodic extension."""
from __future__ import annotations

import math
import sys
import threading
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammatheta import DomainError, ResourceLimitError, bernoulli
from gammatheta.bernoulli import (
    MAX_INDEX,
    BernoulliTable,
    bernoulli_half,
    bernoulli_number,
    shared_table,
)
from gammatheta.oracle import half_shift_identity_check, periodic_bernoulli


def recurrence_identity_check(upto_m: int) -> bool:
    """Check the number table against the classical binomial convolution

        B_m = -1/(m+1) * [ C(m+1,1)*B_1 + sum_{i even < m} C(m+1,i)*B_i ],

    evaluated over exact rationals, independently of how the table entries
    were produced.  Returns whether ``B_2 .. B_{2 upto_m}`` all agree.
    """
    if upto_m < 1:
        raise DomainError(f"recurrence check needs upto_m >= 1, got {upto_m}")
    evens = [Fraction(1)]
    for m2 in range(2, 2 * upto_m + 1, 2):
        acc = Fraction(-(m2 + 1), 2)  # C(m2+1, 1) * B_1
        for i, known in enumerate(evens):
            acc += math.comb(m2 + 1, 2 * i) * known
        value = -acc / (m2 + 1)
        if value != bernoulli_number(m2):
            return False
        evens.append(value)
    return True


def zeta_even(k: int, digits: int) -> mp.mpf:
    """``zeta(2k)`` to ``digits`` digits from the exact Bernoulli number.

    Uses ``|B_{2k}| = 2 (2k)! zeta(2k) / (2 pi)^{2k}`` rearranged; the only
    rounding is in ``pi`` and the final division.
    """
    if k < 1:
        raise DomainError(f"zeta_even needs k >= 1, got {k}")
    b = abs(bernoulli_number(2 * k))
    with mp.workdps(digits + 15):
        num = mp.mpf(b.numerator) / b.denominator * (2 * mp.pi) ** (2 * k)
        den = 2 * mp.factorial(2 * k)
        value = num / den
    with mp.workdps(digits):
        return +value


# B_2 .. B_16, the classical exact values.
LOW_BERNOULLI = {
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
}


@pytest.mark.parametrize(("index", "value"), sorted(LOW_BERNOULLI.items()))
def test_low_even_bernoulli_numbers_are_exact(index, value):
    assert bernoulli_number(index) == value


def test_bernoulli_numbers_alternate_in_sign():
    for j in range(1, 60):
        expected_positive = j % 2 == 1
        assert (bernoulli_number(2 * j) > 0) is expected_positive


@pytest.mark.parametrize("index", [3, 5, 7, 99])
def test_odd_indices_are_rejected(index):
    # The table only serves even indices; odd Bernoulli numbers past B_1
    # vanish and are never needed here.
    with pytest.raises(DomainError):
        bernoulli_number(index)


@pytest.mark.parametrize("index", [0, -2, MAX_INDEX + 2])
def test_out_of_range_indices_are_rejected(index):
    exc = DomainError if index <= 0 else ResourceLimitError
    with pytest.raises(exc):
        bernoulli_number(index)


@pytest.mark.parametrize("index", [4.0, True, Fraction(4), "4"])
def test_indices_that_are_not_ints_are_rejected(index):
    # one rule for every index the module takes: an int, not a bool or a
    # float of integral value
    with pytest.raises(DomainError, match="even int"):
        bernoulli_number(index)
    with pytest.raises(DomainError, match="even int"):
        bernoulli_half(index)
    with mp.workdps(20):
        with pytest.raises(DomainError, match="even int"):
            periodic_bernoulli(index, 0.3)


@pytest.mark.parametrize("index", sorted(LOW_BERNOULLI))
def test_half_argument_values_match_scaled_numbers(index):
    expected = -(1 - Fraction(1, 2 ** (index - 1))) * LOW_BERNOULLI[index]
    assert bernoulli_half(index) == expected


def test_half_argument_sign_is_opposite_to_the_number():
    for j in range(1, 40):
        assert bernoulli_half(2 * j) * bernoulli_number(2 * j) < 0


def _exact_poly(j: int, x: Fraction) -> Fraction:
    """B_j(x) over the rationals from the x-form sum_i C(j,i) B_i x^(j-i),
    with B_1 = -1/2 and the other odd B_i zero."""
    total = x**j - Fraction(j, 2) * x ** (j - 1)
    for i in range(2, j + 1, 2):
        total += math.comb(j, i) * bernoulli_number(i) * x ** (j - i)
    return total


def _rounded(value: Fraction):
    """The exact rational correctly rounded to the working precision."""
    return mp.fdiv(value.numerator, value.denominator)


def test_polynomial_endpoints_equal_the_number():
    # B_j(0) = B_j(1) = B_j for even j >= 2, correctly rounded.
    for digits in (15, 30, 60):
        with mp.workdps(digits):
            for index in (2, 8, 20, 50):
                exact = _rounded(bernoulli_number(index))
                assert periodic_bernoulli(index, 0.0) == exact
                assert periodic_bernoulli(index, 1.0) == exact


def test_polynomial_midpoint_equals_half_value():
    for digits in (15, 30, 60):
        with mp.workdps(digits):
            for index in (2, 10, 36):
                assert periodic_bernoulli(index, 0.5) == _rounded(bernoulli_half(index))


def test_polynomial_is_correctly_rounded_near_a_quarter():
    # Near u = 1/4 the even polynomials sit ~4^(j/2) below the scale of
    # their coefficients, so any rounding inside the evaluation would show.
    for digits in (15, 30, 60):
        with mp.workdps(digits):
            for index in (2, 10, 40, 120):
                for sign in (1, -1):
                    u = Fraction(1, 4) + sign * Fraction(1, 2**40)
                    assert periodic_bernoulli(index, float(u)) == _rounded(_exact_poly(index, u))


def test_periodic_extension_is_correctly_rounded_just_below_zero():
    # {-2^-200} = 1 - 2^-200: reduced exactly, then evaluated exactly.
    with mp.workdps(100):
        for index in (2, 10, 40, 120):
            want = _rounded(_exact_poly(index, 1 - Fraction(1, 2**200)))
            assert periodic_bernoulli(index, -(2.0**-200)) == want


@settings(max_examples=60, deadline=None)
@given(
    j=st.integers(min_value=1, max_value=40),
    u=st.floats(min_value=0.0, max_value=0.5),
)
def test_even_polynomials_are_symmetric_about_one_half(j, u):
    # B_{2j}(u) = B_{2j}(1 - u).
    left = periodic_bernoulli(2 * j, u)
    right = periodic_bernoulli(2 * j, 1.0 - u)
    scale = max(abs(left), mp.mpf(1))
    assert abs(left - right) <= scale * mp.mpf(10) ** (-12)


def test_periodic_extension_reduces_modulo_one():
    for shift in (-3, -1, 0, 2, 7):
        got = periodic_bernoulli(8, 0.375 + shift)
        assert got == _rounded(_exact_poly(8, Fraction(3, 8)))


def test_periodic_extension_is_exact_near_integer_boundaries():
    # u just below an integer must reduce to {u} ~ 1-eps, not wrap to 0.
    below = mp.mpf(3) - mp.mpf(2) ** (-40)
    got = periodic_bernoulli(6, below)
    want = periodic_bernoulli(6, 1.0 - 2.0 ** -40)
    assert abs(got - want) < mp.mpf(10) ** (-12)
    assert periodic_bernoulli(6, mp.mpf(-5)) == _rounded(bernoulli_number(6))


def test_periodic_extension_rejects_non_finite_arguments():
    for u in (mp.inf, mp.nan):
        with pytest.raises(DomainError):
            periodic_bernoulli(4, u)


def test_half_shift_identity_holds_on_a_dense_grid():
    # 2^(1-2k) B_2k({2u}) - B_2k({u}) = B_2k({u + 1/2}) for all real u.
    for k in range(1, 51):
        for i in range(100):
            u = 3.0 * i / 99.0
            assert half_shift_identity_check(k, u)


def test_half_shift_identity_check_rejects_bad_index():
    with pytest.raises(DomainError):
        half_shift_identity_check(0, 0.3)
    for k in (True, 2.0):
        with pytest.raises(DomainError, match="int k"):
            half_shift_identity_check(k, 0.3)


@pytest.mark.parametrize("k", [1, 2, 5, 10, 50, 100])
def test_even_zeta_values_match_reference(k):
    digits = 30
    got = zeta_even(k, digits)
    with mp.workdps(digits + 10):
        want = mp.zeta(2 * k)
        assert abs(got - want) < abs(want) * mp.mpf(10) ** (5 - digits)


def test_zeta_two_is_pi_squared_over_six():
    got = zeta_even(1, 40)
    with mp.workdps(50):
        assert abs(got - mp.pi ** 2 / 6) < mp.mpf(10) ** (-35)


def test_table_agrees_with_the_convolution_recurrence():
    # Independent witness: the classical binomial convolution reproduces
    # every cached number exactly.
    assert recurrence_identity_check(60)
    with pytest.raises(DomainError):
        recurrence_identity_check(0)


def _bernfrac(j: int) -> Fraction:
    p, q = mp.bernfrac(j)
    return Fraction(int(p), int(q))


def test_numbers_equal_mpmath_bernfrac_exactly():
    for j in [*range(2, 601, 2), 1000, 1500, 1998, 2000]:
        assert bernoulli_number(j) == _bernfrac(j), j


def test_growth_in_steps_equals_growth_in_one_call():
    stepped = BernoulliTable()
    for j in (12, 14, 700, 2000):
        stepped.number(j)
    whole = BernoulliTable()
    whole.number(2000)
    assert stepped._even == whole._even
    assert len(whole._even) == MAX_INDEX // 2 + 1
    with pytest.raises(ResourceLimitError):
        stepped.number(MAX_INDEX + 2)


def test_growth_reaches_exactly_the_index_asked():
    table = BernoulliTable()
    for j, size in ((24, 13), (26, 14), (2, 14), (1200, 601), (1204, 603)):
        table.number(j)
        assert len(table._even) == size, j
        assert len(table._column) == size - 1, j


def _counting_steps(monkeypatch) -> list[int]:
    """Patch the recurrence step to record the index it extends from."""
    step = bernoulli._tangent_step
    calls: list[int] = []
    monkeypatch.setattr(
        bernoulli, "_tangent_step", lambda column: calls.append(len(column)) or step(column)
    )
    return calls


def test_growth_by_one_index_makes_one_step(monkeypatch):
    table = BernoulliTable()
    table.number(1998)
    calls = _counting_steps(monkeypatch)
    table.number(2000)
    assert calls == [999]
    assert table.number(2000) == _bernfrac(2000)


def test_each_index_is_extended_once(monkeypatch):
    calls = _counting_steps(monkeypatch)
    table = BernoulliTable()
    for j in (2, 10, 8, 400, 402, 404):
        table.number(j)
    assert calls == list(range(1, 202))


@pytest.mark.parametrize("where", ["before", "within", "after"])
def test_an_interrupted_growth_leaves_later_numbers_exact(monkeypatch, where):
    # An exception before a step, halfway through one, or after it but
    # before the number is stored must not corrupt any later growth.
    step = bernoulli._tangent_step

    def failing(column):
        if len(column) == 150:
            if where == "within":
                column[0] *= 3
            elif where == "after":
                step(column)
            raise KeyboardInterrupt
        return step(column)

    table = BernoulliTable()
    table.number(100)
    monkeypatch.setattr(bernoulli, "_tangent_step", failing)
    with pytest.raises(KeyboardInterrupt):
        table.number(400)
    monkeypatch.setattr(bernoulli, "_tangent_step", step)
    assert len(table._even) == 151
    table.number(600)
    assert len(table._column) == len(table._even) - 1 == 300
    for j in range(2, 601, 2):
        assert table.number(j) == _bernfrac(j), (where, j)


def test_threads_growing_one_table_agree_with_a_serial_build():
    serial = BernoulliTable()
    serial.number(MAX_INDEX)
    shared = BernoulliTable()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=shared.number, args=(j,))
            for j in (MAX_INDEX, 600, 1400, 38)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert shared._even == serial._even
    assert shared._column == serial._column
    for j in range(2, MAX_INDEX + 1, 2):
        assert shared.number(j) == _bernfrac(j), j


def test_fresh_table_is_independent_of_the_shared_one():
    table = BernoulliTable()
    assert table is not shared_table()
    assert table.number(12) == Fraction(-691, 2730)


def test_large_index_magnitude_growth():
    # |B_2k| grows super-exponentially; spot-check the von Staudt-scale size.
    b100 = bernoulli_number(100)
    assert abs(b100) > Fraction(10) ** 78
