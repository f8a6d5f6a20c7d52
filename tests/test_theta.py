"""Certified Riemann-Siegel-angle evaluation and its variants."""
from __future__ import annotations

import math
import random

import mpmath as mp
import pytest
from conftest import ChargeReference

from gammatheta import AccuracyError, DomainError, series
from gammatheta.bounds import Target, best_bound
from gammatheta.fputil import up
from gammatheta.series import k_min
from gammatheta.theta import (
    ThetaResult,
    ThetaVariant,
    arctan_term,
    eval_theta,
)

CONTAINMENT_T = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)


def re_rhat_identity(t: float) -> float:
    """``-log(1 + e^(-2 pi t)) / 2``: the k-independent exact real part of
    the half-family remainder at purely imaginary argument ``i t``."""
    t = float(t)
    if t < 0.0:
        raise DomainError(f"identity requires t >= 0, got {t!r}")
    if t > 745.0 / math.pi:
        return -0.0
    return -0.5 * math.log1p(math.exp(-2.0 * math.pi * t))


def reference_theta(t: float) -> float:
    with mp.workdps(50):
        z = mp.mpc(mp.mpf(1) / 4, mp.mpf(t) / 2)
        return float(mp.im(mp.loggamma(z)) - mp.mpf(t) / 2 * mp.log(mp.pi))


def test_zero_is_exact():
    result = eval_theta(0.0)
    assert result.value == 0.0
    assert result.radius == 0.0
    assert "EXACT_ZERO" in result.flags


def test_oddness_is_exact_by_construction():
    for t in (0.7, 5.0, 31.4):
        pos = eval_theta(t)
        neg = eval_theta(-t)
        assert neg.value == -pos.value
        assert neg.radius == pos.radius
        assert neg.k_used == pos.k_used


def test_non_finite_arguments_are_rejected():
    with pytest.raises(DomainError):
        eval_theta(math.inf)
    with pytest.raises(DomainError):
        eval_theta(math.nan)


def test_term_count_validation():
    with pytest.raises(DomainError):
        eval_theta(5.0, k=0)
    with pytest.raises(DomainError):
        eval_theta(5.0, k="many")
    with pytest.raises(DomainError, match="term count"):
        eval_theta(5.0, k=True)
    with pytest.raises(DomainError, match="unknown theta variant"):
        eval_theta(1.0, variant="x")
    # t = 0 returns the exact zero and t < 0 recurses on -t: a bad k is
    # refused there too
    for t in (0.0, -0.0, -5.0):
        for k in (-5, "many", True):
            with pytest.raises(DomainError, match="term count"):
                eval_theta(t, k=k)


@pytest.mark.parametrize("t", CONTAINMENT_T)
@pytest.mark.parametrize("variant", list(ThetaVariant))
def test_containment_at_the_documented_grid(t, variant):
    result = eval_theta(t, variant=variant)
    assert isinstance(result, ThetaResult)
    assert abs(result.value - reference_theta(t)) <= result.radius


def test_auto_mode_uses_the_least_term_index():
    for t in (1.0, 5.0, 20.0):
        assert eval_theta(t).k_used == k_min(t).k_min
    assert eval_theta(0.1).k_used == 1  # terms grow from the start here


#: ``(value.hex(), radius.hex(), k_used)`` of auto-mode ``eval_theta(t)``
#: at heights where the terms near the least one underflow doubles, taken
#: while every such term was still formed as an exact rational.
HIGH_T_PINS = {
    124.7: ("0x1.ee3ed8f90f966p+6", "0x1.9300000000000p-37", 393),
    193.0: ("0x1.d33428fbef4c9p+7", "0x1.3480000000000p-35", 607),
    240.4: ("0x1.3d77b0010214fp+8", "0x1.7e00000000000p-34", 756),
    299.5: ("0x1.ac86e3d2da0dcp+8", "0x1.db00000000000p-34", 942),
}


@pytest.mark.parametrize(("t", "pin"), sorted(HIGH_T_PINS.items()))
def test_auto_mode_near_the_cap_keeps_its_bits(t, pin):
    result = eval_theta(t)
    assert (result.value.hex(), result.radius.hex(), result.k_used) == pin


def test_explicit_term_count_is_respected():
    assert eval_theta(5.0, k=9).k_used == 9


def test_term_counts_whose_sum_overflows_are_refused():
    # at t = 0.1 the terms grow from the first; 200 of them overflow
    for t in (0.1, -0.1):
        with pytest.raises(AccuracyError):
            eval_theta(t, k=200)


def test_a_finite_sum_whose_bound_overflows_is_refused():
    # at t = 0.5 the sum of 110 terms is finite, but the theta-gamma-ratio
    # bound after them is not: the refusal after the bound is built
    assert 1e307 < series.partial_sum("theta", 110, 0.5) < math.inf
    assert best_bound(110, 0.5, "theta", Target.R_KP1).value == math.inf
    message = r"theta with 110 terms overflows double precision at t=0.5 \(value 1\.00\d*e\+307, radius inf\)"
    with pytest.raises(AccuracyError, match=message):
        eval_theta(0.5, 110)


def test_an_overflowing_sum_forms_no_term_past_the_first_infinite_total(monkeypatch):
    # Past the overflow every further theta term is inf; the sum stops at
    # the first infinite total, where the refusal (value and radius inf) is
    # already decided, so no bound is built and no coefficient past it.
    t, k = 1e-3, 999
    monkeypatch.setitem(series._ROWS, "theta", [None])  # a fresh table
    total, last = 0.0, 0
    while total < math.inf:
        last += 1
        total += series.theta_term(last, t)
    assert len(series._ROWS["theta"]) == last + 1
    calls, real = [], series.theta_term

    def counting(j, t):
        calls.append(j)
        return real(j, t)

    def no_bound(*args):
        raise AssertionError("a bound was built after the sum overflowed")

    monkeypatch.setattr(series, "theta_term", counting)
    monkeypatch.setattr("gammatheta.theta.best_bound", no_bound)
    message = r"theta with 999 terms overflows double precision at t=0.001 \(value inf, radius inf\)"
    with pytest.raises(AccuracyError, match=message):
        eval_theta(t, k)
    assert calls == list(range(1, last + 1))
    assert len(series._ROWS["theta"]) == last + 1
    assert last < 100


def test_the_radius_adds_the_fp_charges_in_order():
    # eval_theta adds its charges to a plain float: equal bits show the
    # reference's amounts, added in its order, for every variant and both
    # auto and fixed k.
    rng = random.Random(20261107)
    checked = 0
    for _ in range(300):
        t = 10.0 ** rng.uniform(-2.0, 1.7)
        variant = rng.choice(list(ThetaVariant))
        try:
            got = eval_theta(t, rng.choice(("auto", rng.randint(1, 30))), variant)
        except AccuracyError:
            continue
        fp = ChargeReference()
        main = 0.5 * t * (math.log(t) - math.log(2.0 * math.pi) - 1.0)
        fp.charge(max(abs(main), t, 1.0), 4)
        value = main - math.pi / 8.0
        value += series.partial_sum("theta", got.k_used, t)
        fp.charge(max(abs(value), 1.0), got.k_used + 4)
        omitted = 0.0
        if variant is ThetaVariant.STANDARD:
            omitted = up(0.5 * math.exp(-math.pi * t), 2)
        else:
            value += arctan_term(t)
            fp.charge(max(abs(value), 1.0), 2)
        if variant is ThetaVariant.EMPIRICAL:
            value += got.advisory_correction
            fp.charge(max(abs(value), 1.0), 3)
        bound = best_bound(got.k_used, t, "theta", Target.R_KP1).value
        assert (got.value, got.radius) == (value, bound + fp.total + omitted), (t, variant)
        checked += 1
    assert checked > 200

def test_variant_value_differences_are_the_documented_corrections():
    t = 3.0
    standard = eval_theta(t, variant=ThetaVariant.STANDARD)
    arctan = eval_theta(t, variant=ThetaVariant.ARCTAN)
    empirical = eval_theta(t, variant=ThetaVariant.EMPIRICAL)

    assert arctan.value - standard.value == pytest.approx(arctan_term(t), rel=1e-12)
    assert empirical.advisory_correction is not None
    assert empirical.value - arctan.value == pytest.approx(
        empirical.advisory_correction, rel=1e-12
    )
    assert standard.advisory_correction is None
    assert arctan.advisory_correction is None


def test_standard_variant_radius_carries_the_arctan_sized_term():
    t = 2.0
    standard = eval_theta(t, variant=ThetaVariant.STANDARD)
    arctan = eval_theta(t, variant=ThetaVariant.ARCTAN)
    gap = standard.radius - arctan.radius
    assert gap == pytest.approx(0.5 * math.exp(-math.pi * t), rel=1e-6)


def test_empirical_advisory_matches_its_formula():
    t = 7.0
    report = k_min(t)
    result = eval_theta(t, variant=ThetaVariant.EMPIRICAL)
    want = (math.pi * t - report.k_min + 1.0 / 12.0) * report.t_min
    assert result.advisory_correction == pytest.approx(want, rel=1e-12)


def test_advisory_correction_is_odd_with_the_value():
    pos = eval_theta(4.0, variant=ThetaVariant.EMPIRICAL)
    neg = eval_theta(-4.0, variant=ThetaVariant.EMPIRICAL)
    assert neg.advisory_correction == -pos.advisory_correction


def test_underflow_regime_is_flagged_and_still_contained():
    t = 300.0
    for variant in (ThetaVariant.STANDARD, ThetaVariant.ARCTAN):
        result = eval_theta(t, variant=variant)
        assert "UNDERFLOW_FOLDED" in result.flags
        assert math.isfinite(result.value)
        assert abs(result.value - reference_theta(t)) <= result.radius


def test_bound_kind_is_reported():
    result = eval_theta(5.0)
    assert result.bound_kind is not None


def test_arctan_term_shrinks_like_half_the_exponential():
    for t in (1.0, 5.0, 12.0):
        assert arctan_term(t) == pytest.approx(
            0.5 * math.atan(math.exp(-math.pi * t)), rel=1e-12
        )


def test_real_part_identity_closed_form():
    for t in (0.3, 1.0, 6.0):
        want = -0.5 * math.log1p(math.exp(-2 * math.pi * t))
        assert re_rhat_identity(t) == pytest.approx(want, rel=1e-12)
        # Re ln Gamma(1/2 + it) less the real part -pi t/2 + log(2 pi)/2 of
        # the main terms; every series term at it is purely imaginary.
        with mp.workdps(40):
            rest = mp.re(mp.loggamma(mp.mpc(0.5, t))) + mp.pi * t / 2
            rest -= mp.log(2 * mp.pi) / 2
        assert re_rhat_identity(t) == pytest.approx(float(rest), rel=1e-12)
