"""Certified truncation bounds: constants, families, selection rules."""
from __future__ import annotations

import cmath
import math
import random
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from conftest import brackets_exact_product

from gammatheta import DomainError, bounds
from gammatheta.bounds import (
    CK_MAX_K,
    CONTAINMENT_T,
    _gamma_ratio,
    BoundKind,
    Target,
    applicable_bounds,
    best_bound,
    c_k,
    containment_grid,
    eta,
    eta_fraction,
    faulty_theta_bound,
    rigorous_bound,
)
from gammatheta.fputil import ceil_float, up
from gammatheta.oracle import _compute_ck, c_k_string
from gammatheta.series import stirling_term, term_coefficient, theta_term


def log_coefficient(family: str, k: int) -> float:
    """log |c_k| of a series family, from the exact coefficient."""
    c = term_coefficient(family, k)
    return math.log(abs(c.numerator)) - math.log(c.denominator)

# Frozen six-decimal (rounded-up) presentation of the quadratic-bound
# constants at the documented fifteen indices.
CK_PINS = {
    1: "0.072096",
    2: "0.103961",
    3: "0.104294",
    4: "0.105304",
    5: "0.106460",
    6: "0.107384",
    7: "0.108089",
    8: "0.108634",
    9: "0.109067",
    10: "0.109419",
    15: "0.110498",
    20: "0.111050",
    25: "0.111384",
    30: "0.111609",
    50: "0.112060",
}

CK_LIMIT = 1.0 / (math.pi**2 - 1.0)


def _exact_stirling_term(j: int, z: complex):
    """|T_j(z)| of the plain family at 30 digits."""
    coeff = term_coefficient("stirling", j)
    with mp.workdps(30):
        c = mp.mpf(coeff.numerator) / coeff.denominator
        return abs(c / mp.mpc(z) ** (2 * j - 1))


# -- constants ---------------------------------------------------------------


@pytest.mark.parametrize(("k", "expected"), sorted(CK_PINS.items()))
def test_ck_six_decimal_strings_match_reference(k, expected):
    assert c_k_string(k, 6) == expected


def test_ck_string_rounds_up_not_to_nearest():
    # c_100 = 0.112401204...; rounding *up* at six places gives ...02.
    assert c_k_string(100, 9) == "0.112401204"
    assert c_k_string(100, 6) == "0.112402"


@pytest.mark.parametrize("decimals", [0, -1, 2.5, 10**6, 101, True, 6.0])
def test_ck_string_refuses_decimals_outside_one_to_a_hundred(decimals):
    with pytest.raises(DomainError, match="decimals"):
        c_k_string(1, decimals)


def test_ck_string_takes_decimals_from_one_to_a_hundred():
    assert c_k_string(1, 1) == "0.1"
    assert len(c_k_string(1, 100)) == 102


def test_ck_values_increase_and_stay_below_the_limit():
    previous = 0.0
    for k in range(1, 101):
        value = c_k(k)
        assert previous < value < CK_LIMIT
        previous = value


def test_ck_decimal_rounding_never_decreases_the_value():
    for k in (1, 7, 33, 100):
        # 60 places hold the stored 50-digit constant exactly
        stored = Fraction(c_k_string(k, 60))
        assert stored <= Fraction(c_k(k))
        previous = stored
        for decimals in (30, 9, 6, 2):
            rounded = Fraction(c_k_string(k, decimals))
            assert rounded >= previous
            previous = rounded


def test_ck_literals_are_the_computed_constants_rounded_up():
    for k in range(1, CK_MAX_K + 1):
        assert c_k(k) == ceil_float(_compute_ck(k)), k


def test_ck_table_rejects_out_of_range_indices():
    with pytest.raises(DomainError):
        c_k(101)
    with pytest.raises(DomainError):
        c_k(0)


def test_eta_fraction_is_exact():
    assert eta_fraction(1) == Fraction(2)
    assert eta_fraction(2) == Fraction(8, 7)
    assert eta_fraction(5) == Fraction(512, 511)
    for k in (1, 3, 10):
        assert eta(k) >= float(eta_fraction(k))
        assert eta(k) > 1.0


# -- plain family ------------------------------------------------------------


def test_gamma_ratio_is_the_sharpest_general_form():
    # sqrt(pi k) is a closed-form weakening: never below the gamma ratio.
    for k in (1, 2, 5, 20, 80):
        z = complex(2.0, 3.0)
        sharp = rigorous_bound(BoundKind.GAMMA_RATIO, k, z, "stirling").normalized
        weak = rigorous_bound(BoundKind.SQRT_PIK, k, z, "stirling").normalized
        assert 1.0 <= sharp <= weak


def test_quadratic_forms_require_k_at_most_argument_magnitude():
    quadratic, ck = BoundKind.QUADRATIC, BoundKind.CK_QUADRATIC
    assert rigorous_bound(quadratic, 5, 4.0 + 0j, "stirling").applicable is False
    assert rigorous_bound(quadratic, 5, 6.0 + 0j, "stirling").applicable is True
    assert rigorous_bound(ck, 5, 4.0 + 0j, "stirling").applicable is False
    # beyond the table
    assert rigorous_bound(ck, 101, 200.0 + 0j, "stirling").applicable is False


def test_ck_bound_sharpens_the_quadratic_bound():
    for k, z in ((2, 9.0 + 2j), (10, 30j), (50, 60.0 + 60j)):
        plain = rigorous_bound(BoundKind.QUADRATIC, k, z, "stirling")
        sharp = rigorous_bound(BoundKind.CK_QUADRATIC, k, z, "stirling")
        assert sharp.applicable and plain.applicable
        assert sharp.value < plain.value
        assert sharp.normalized < plain.normalized


PLAIN_KINDS = (
    BoundKind.GAMMA_RATIO, BoundKind.SQRT_PIK, BoundKind.QUADRATIC, BoundKind.CK_QUADRATIC,
)
CLASSICAL_KINDS = (
    BoundKind.WHITTAKER_WATSON, BoundKind.STIELTJES, BoundKind.BEHNKE_SOMMER, BoundKind.HARE,
)


def test_plain_bounds_reject_the_left_half_plane():
    for kind in PLAIN_KINDS:
        result = rigorous_bound(kind, 2, complex(-1.0, 5.0), "stirling")
        assert result.applicable is False
        assert math.isinf(result.value)


def test_before_term_target_adds_one_to_the_normalized_form():
    z = complex(1.0, 4.0)
    for k in (1, 3, 9):
        after = rigorous_bound(BoundKind.GAMMA_RATIO, k, z, "stirling", Target.R_KP1)
        before = rigorous_bound(BoundKind.GAMMA_RATIO, k, z, "stirling", Target.R_K)
        assert before.normalized == pytest.approx(after.normalized + 1.0, rel=1e-9)


def test_bound_values_scale_with_the_current_term():
    k, z = 4, complex(0.5, 7.0)
    result = rigorous_bound(BoundKind.GAMMA_RATIO, k, z, "stirling")
    assert result.value == pytest.approx(
        result.normalized * abs(stirling_term(k, z)), rel=1e-12
    )
    # A term beyond the double range gives an infinite bound: here |T_55|
    # has finite parts but overflows in abs(), and at a subnormal argument
    # the power of 1/z leaves NaN parts.
    for k, z in ((55, 0.00806425214991658 + 0.004549023565963028j), (2, 5e-324)):
        assert _exact_stirling_term(k, z) > sys.float_info.max
        for context in ("stirling", "gauss"):
            for target in (Target.R_KP1, Target.R_K):
                for bound in applicable_bounds(k, z, context, target):
                    assert not bound.applicable or bound.value == math.inf
                assert best_bound(k, z, context, target).value == math.inf


def test_a_modulus_past_the_double_range_meets_every_quadratic_rung():
    # |z| overflows at 1e308(1 + i), where (k/|z|)^2 is 0: the ck rung
    # applies, and its product is stepped up to the smallest subnormal.
    best = best_bound(5, 1e308 + 1e308j, "stirling")
    assert best.applicable and best.kind is BoundKind.CK_QUADRATIC
    assert best.value == 5e-324


def test_bound_index_validation():
    with pytest.raises(DomainError):
        rigorous_bound(BoundKind.GAMMA_RATIO, 0, 1 + 1j, "stirling")
    with pytest.raises(DomainError):
        best_bound(-3, 1 + 1j, "stirling")
    with pytest.raises(DomainError):
        best_bound(True, 3 + 1j, "stirling")
    with pytest.raises(DomainError):
        rigorous_bound(BoundKind.HARE, True, 3 + 1j, "stirling", Target.R_K)


# -- half-shifted family -----------------------------------------------------


def test_half_family_transports_plain_bounds_with_the_eta_factor():
    k, z = 4, complex(3.0, 4.0)
    plain = rigorous_bound(BoundKind.GAMMA_RATIO, k, z, "stirling")
    half = rigorous_bound(BoundKind.HALF_GAMMA_RATIO, k, z, "gauss")
    assert half.kind is BoundKind.HALF_GAMMA_RATIO
    assert half.normalized / plain.normalized == pytest.approx(eta(k), rel=1e-9)


def test_half_family_keeps_the_ck_kind_name():
    result = rigorous_bound(BoundKind.CK_QUADRATIC, 3, 10.0 + 0j, "gauss")
    assert result.kind is BoundKind.CK_QUADRATIC
    with pytest.raises(DomainError):
        rigorous_bound(BoundKind.HARE, 3, 10.0 + 0j, "gauss")


# -- theta family ------------------------------------------------------------


def test_theta_quadratic_requires_t_at_least_k():
    assert rigorous_bound(BoundKind.THETA_QUADRATIC, 8, 5.0, "theta").applicable is False
    assert rigorous_bound(BoundKind.THETA_QUADRATIC, 4, 5.0, "theta").applicable is True


def test_theta_r_k_target_adds_the_current_term():
    k, t = 5, 9.0
    after = {b.kind: b for b in applicable_bounds(k, t, "theta", Target.R_KP1)}
    before = {b.kind: b for b in applicable_bounds(k, t, "theta", Target.R_K)}
    term = theta_term(k, t)
    for kind, b in before.items():
        if not b.applicable:
            continue
        assert b.value >= after[kind].value + term
        assert b.normalized == pytest.approx(after[kind].normalized + 1.0, rel=1e-9)


def test_theta_bounds_reject_nonpositive_t():
    for t in (0.0, -2.0):
        bound = rigorous_bound(BoundKind.THETA_GAMMA_RATIO, 3, t, "theta")
        assert bound.applicable is False


# -- literature bounds -------------------------------------------------------


def test_sector_bound_is_free_inside_the_quarter_sector():
    ww = BoundKind.WHITTAKER_WATSON
    inside = rigorous_bound(ww, 3, 4.0 + 1j, "stirling", Target.R_K)
    assert inside.normalized == 1.0
    outside = rigorous_bound(ww, 3, 1.0 + 4j, "stirling", Target.R_K)
    assert outside.normalized > 1.0
    assert rigorous_bound(ww, 3, -1.0 + 4j, "stirling", Target.R_K).applicable is False


def test_sector_bound_wins_on_the_positive_real_axis():
    result = best_bound(4, 5.0, "stirling", Target.R_K)
    assert result.kind is BoundKind.WHITTAKER_WATSON
    assert result.normalized == 1.0


def test_secant_power_bound_squares_away_from_the_axis():
    # sec(pi/4)^(2k) = 2^k on the imaginary axis.
    result = rigorous_bound(BoundKind.STIELTJES, 3, 10j, "stirling", Target.R_K)
    assert result.normalized == pytest.approx(8.0, rel=1e-9)
    after = rigorous_bound(BoundKind.STIELTJES, 3, 10j, "stirling", Target.R_KP1)
    assert after.applicable is False


def test_next_term_relative_bound_only_serves_the_after_k_target():
    ok = rigorous_bound(BoundKind.BEHNKE_SOMMER, 4, 6.0 + 1j, "stirling", Target.R_KP1)
    assert ok.applicable
    assert "RELATIVE_TO_NEXT_TERM" in ok.flags
    assert ok.value == pytest.approx(
        ok.normalized * abs(stirling_term(5, 6.0 + 1j)), rel=1e-9
    )
    before = rigorous_bound(BoundKind.BEHNKE_SOMMER, 4, 6.0 + 1j, "stirling", Target.R_K)
    assert before.applicable is False


def test_imaginary_part_bound_requires_a_nonreal_argument():
    real = rigorous_bound(BoundKind.HARE, 3, 5.0 + 0j, "stirling", Target.R_K)
    assert real.applicable is False
    result = rigorous_bound(BoundKind.HARE, 3, 5.0 + 2j, "stirling", Target.R_K)
    assert result.applicable and result.value > 0.0


_CLASSICAL_CASES = (
    (BoundKind.WHITTAKER_WATSON, Target.R_K),
    (BoundKind.STIELTJES, Target.R_K),
    (BoundKind.HARE, Target.R_K),
    (BoundKind.BEHNKE_SOMMER, Target.R_KP1),
)


def _exact_classical(kind: BoundKind, k: int, z: complex, target: Target):
    """The bound's formula at 60 digits, from the exact coefficients and the
    double z."""

    def term(j, modulus):
        c = term_coefficient("stirling", j)
        return abs(mp.mpf(c.numerator) / c.denominator) / modulus ** (2 * j - 1)

    with mp.workdps(60):
        x, y = mp.mpf(z.real), abs(mp.mpf(z.imag))
        r = mp.sqrt(x * x + y * y)
        if kind is BoundKind.WHITTAKER_WATSON:
            # 1/|sin 2 arg z| outside the quarter sector
            factor = 1 if y <= x else r * r / (2 * x * y)
        elif kind is BoundKind.STIELTJES:
            factor = (2 * r / (r + x)) ** k  # sec(arg z / 2)^(2k)
        elif kind is BoundKind.BEHNKE_SOMMER:
            factor = 1 + mp.mpf(2 * k + 1) / 2 * mp.sqrt(mp.pi / k)
            return factor * term(k + 1, r)
        else:  # HARE
            factor = 4 * mp.sqrt(mp.pi) * mp.gamma(k + mp.mpf(0.5)) / mp.gamma(k)
            return factor * term(k, y)
        return factor * term(k, r)


def _brackets(value: float, exact) -> bool:
    """Whether ``value`` lies between ``exact`` and (1 + 2**-30) times it,
    plus two subnormal steps below 2**-1022; ``inf`` only where (1 + 2**-30)
    times it passes the largest double."""
    with mp.workdps(60):
        top = exact * (1 + mp.mpf(2) ** -30)
        if value == math.inf:
            return top > sys.float_info.max
        low = mp.mpf(value)
        if value < sys.float_info.min:
            low -= 2 * mp.mpf(2) ** -1074
        return exact <= value and low <= top


def test_secant_power_bound_is_finite_where_only_its_factor_overflows():
    # sec^2(arg z/2)^16 is about 1.6e339 at -100 + 1e-8j, past the double
    # range, but times |T_16| the bound is finite
    k, z = 16, complex(-100.0, 1e-8)
    bound = rigorous_bound(BoundKind.STIELTJES, k, z, "stirling", Target.R_K)
    assert bound.applicable and bound.normalized == math.inf
    exact = _exact_classical(BoundKind.STIELTJES, k, z, Target.R_K)
    assert _brackets(bound.value, exact)
    assert 6.5e274 < bound.value < 6.6e274


def test_imaginary_part_bound_past_the_double_range_is_an_applicable_inf():
    # as every other rung and classical bound reports an overflowing value
    k, z = 55, complex(0.00806425214991658, 0.004549023565963028)
    for kind in (BoundKind.HARE, BoundKind.GAMMA_RATIO, BoundKind.WHITTAKER_WATSON):
        bound = rigorous_bound(kind, k, z, "stirling", Target.R_K)
        assert bound.applicable, kind
        assert bound.value == math.inf
    hare = rigorous_bound(BoundKind.HARE, k, z, "stirling", Target.R_K)
    assert hare.normalized == math.inf
    assert _exact_classical(BoundKind.HARE, k, z, Target.R_K) > sys.float_info.max


def test_classical_bounds_bracket_their_exact_formulas():
    # Each classical value is its factor from the parts of z
    # times one term modulus: at least the exact formula and within the guard
    # factors of it, next to the axes too, where a rounded arg z loses the
    # factor.
    rng = random.Random(20261106)
    cases = []
    for k in range(1, 1000):
        # |z| log-uniform in [1e-3, 1e16], and in [k, 10k], where most
        # values are normal doubles
        for modulus in (10.0 ** rng.uniform(-3.0, 16.0), k * 10.0 ** rng.uniform(0.0, 1.0)):
            cases.append((k, cmath.rect(modulus, rng.uniform(-math.pi, math.pi))))
            axis = rng.choice((0.0, 0.5, 1.0, -0.5)) * math.pi
            offset = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-13.0, -2.0)
            cases.append((k, cmath.rect(modulus, axis + offset)))
    # at 1e-309 + 1j Whittaker-Watson's |Im z|/Re z passes the double range
    # though its product with the term does not
    special = (complex(1e-300, 1.0), complex(1e-309, 1.0), complex(-1.0, 1e-15),
               complex(-1.0, 1e-17))
    cases += [(k, z) for z in special for k in (1, 2, 3, 8, 30)]
    checked = dict.fromkeys(_CLASSICAL_CASES, 0)
    normal = dict.fromkeys(_CLASSICAL_CASES, 0)
    for k, z in cases:
        for kind, target in _CLASSICAL_CASES:
            bound = rigorous_bound(kind, k, z, "stirling", target)
            if bound.applicable:
                exact = _exact_classical(kind, k, z, target)
                assert _brackets(bound.value, exact), (kind, target, k, z, bound.value)
                checked[kind, target] += 1
                normal[kind, target] += sys.float_info.min <= bound.value < math.inf
    for k in (1, 3, 8):
        for z in special[2:]:
            bound = rigorous_bound(BoundKind.STIELTJES, k, z, "stirling", Target.R_K)
            assert bound.applicable
    assert min(checked.values()) > 1000 and min(normal.values()) > 100, (checked, normal)


# -- non-rigorous bounds -----------------------------------------------------


def test_refuted_historical_bound_matches_its_closed_form():
    k, t = 3, 9.5
    want = math.factorial(2 * k) / (
        (2 * math.pi) ** (2 * k + 2) * t ** (2 * k + 1)
    ) + math.exp(-math.pi * t)
    assert faulty_theta_bound(k, t) == pytest.approx(want, rel=1e-12)
    with pytest.raises(DomainError):
        faulty_theta_bound(3, 0.0)


# -- selection ---------------------------------------------------------------


def test_ladder_factors_are_ordered():
    # The order each context's ladder relies on, as factors on the common
    # term; theta's rungs are the same chain times eta_k, read at t = k,
    # where all three apply and the quadratic one is at its largest.
    for k in range(1, 1000):
        if k <= 100:
            assert c_k(k) < CK_LIMIT
        assert CK_LIMIT < math.pi / 2 <= _gamma_ratio(k) < math.sqrt(math.pi * k)
        quadratic, ratio, sqrt_pik = (
            rigorous_bound(kind, k, float(k), "theta").normalized
            for kind in (
                BoundKind.THETA_QUADRATIC,
                BoundKind.THETA_GAMMA_RATIO,
                BoundKind.THETA_SQRT_PIK,
            )
        )
        assert eta(k) * CK_LIMIT <= quadratic < eta(k) * math.pi / 2 <= ratio < sqrt_pik


def _theta_subnormal_band() -> list[tuple[int, float]]:
    """(k, t) with t < k where the k-th theta term is subnormal or just
    underflows: there the gamma-ratio and sqrt(pi k) rungs are their factors
    times one rounded term, and monotone rounding must keep their order."""
    points = []
    for k in range(180, 1000, 61):
        for log10_term in (-310.0, -318.0, -321.0, -322.5, -323.5, -324.5):
            log_t = (log_coefficient("theta", k) - log10_term * math.log(10.0)) / (2 * k - 1)
            points.append((k, math.exp(log_t)))
    assert all(t < k for k, t in points)
    return points


def test_best_bound_is_the_minimum_of_the_applicable_candidates():
    rng = random.Random(20161018)
    cases = [(8, 10j, "stirling", Target.R_KP1)]
    for _ in range(1500):
        context = rng.choice(("stirling", "gauss", "theta"))
        target = rng.choice((Target.R_KP1, Target.R_K))
        k = rng.randint(1, 999)
        modulus = 10.0 ** rng.uniform(-3.0, 16.0)
        angle = rng.uniform(-math.pi, math.pi)
        # the whole plane: left of the axis only Stieltjes and Hare apply,
        # and only before the k-th term
        argument = modulus if context == "theta" else cmath.rect(modulus, angle)
        cases.append((k, argument, context, target))
    for k, t in _theta_subnormal_band():
        cases += [(k, t, "theta", Target.R_KP1), (k, t, "theta", Target.R_K)]

    for k, argument, context, target in cases:
        candidates = [
            c for c in applicable_bounds(k, argument, context, target) if c.applicable
        ]
        if not candidates:
            with pytest.raises(DomainError):
                best_bound(k, argument, context, target)
            continue
        best = best_bound(k, argument, context, target)
        least = min(c.value for c in candidates)
        assert best.value == least, (k, argument, context, target)
        winners = [c for c in candidates if c.value == least]
        if len(winners) == 1:
            assert best.kind is winners[0].kind, (k, argument, context, target)


def test_behnke_sommer_cannot_undercut_a_quadratic_rung():
    # After k terms Behnke-Sommer is (1 + (2k+1)/2 sqrt(pi/k)) |T_(k+1)| and
    # the rung r (k/|z|)^2 |T_k|; |T_(k+1)/T_k| = |c_(k+1)/c_k| / |z|^2, so
    # their ratio does not depend on z.  best_bound relies on it to skip
    # building Behnke-Sommer behind a quadratic rung.
    ratios = []
    for k in range(1, 1000):
        coeff_ratio = abs(term_coefficient("stirling", k + 1) / term_coefficient("stirling", k))
        rung = c_k(k) if k <= 100 else CK_LIMIT
        with mp.workdps(30):
            factor = 1 + mp.mpf(2 * k + 1) / 2 * mp.sqrt(mp.pi / k)
            exact = mp.mpf(coeff_ratio.numerator) / coeff_ratio.denominator
            ratios.append(factor * exact / (mp.mpf(rung) * k * k))
    assert min(ratios) >= 1.69
    assert min(ratios) == ratios[0]
    z = complex(30.0, 40.0)
    assert best_bound(5, z, "stirling").kind is BoundKind.CK_QUADRATIC
    assert best_bound(150, 300.0 + 400j, "stirling").kind is BoundKind.QUADRATIC


def test_plain_bounds_cover_the_exact_value_where_the_power_is_subnormal():
    # (1/z)^119 is subnormal at 270+360j while the bound is normal; a power
    # rounded there loses the bits the guard factors cannot cover.
    z = complex(270.0, 360.0)
    bound = rigorous_bound(BoundKind.GAMMA_RATIO, 60, z, "stirling")
    assert bound.value >= 3.9315887623e-216
    with mp.workdps(30):
        assert mp.mpf(bound.value) >= bound.normalized * _exact_stirling_term(60, z)


def test_theta_bounds_round_up_below_the_normal_range():
    # A rounded subnormal term can sit half a step low; the bound built on
    # it must still cover its factor times the exact term.
    quadratic = []  # t >= k, where (k/t)^2 T_k(t) ~ t^-(2k+1) is subnormal
    for k in (2, 7, 40):
        for log10_product in (-310.0, -316.0, -321.0):
            log_t = log_coefficient("theta", k) + 2.0 * math.log(k)
            log_t = (log_t - log10_product * math.log(10.0)) / (2 * k + 1)
            quadratic.append((k, math.exp(log_t)))
    assert all(t >= k for k, t in quadratic)
    # sqrt(pi k) products near 2**-1035 at large k: there a value formed
    # from logs can be off by more than one subnormal step
    large_k = [(788, 145.36383158183696), (820, 148.60701412352284),
               (912, 158.1491059604914), (957, 162.96342063652014)]
    for k, t in _theta_subnormal_band() + quadratic + large_k:
        exact = term_coefficient("theta", k) / Fraction(t) ** (2 * k - 1)
        for kind in THETA_KINDS:
            bound = rigorous_bound(kind, k, t, "theta")
            if bound.applicable:
                assert Fraction(bound.value) >= Fraction(bound.normalized) * exact
    # The plain family too: at this z, T_12 underflows to 0 in doubles and
    # the quadratic products at k = 11 are seven subnormal steps and a bit.
    z = complex(80452098456526.69, -103566280334393.52)
    for bound, j in (
        (rigorous_bound(BoundKind.CK_QUADRATIC, 11, z, "stirling"), 11),
        (rigorous_bound(BoundKind.QUADRATIC, 11, z, "stirling"), 11),
        (rigorous_bound(BoundKind.BEHNKE_SOMMER, 11, z, "stirling", Target.R_KP1), 12),
    ):
        assert bound.value < sys.float_info.min
        with mp.workdps(30):
            exact = bound.normalized * _exact_stirling_term(j, z)
            assert mp.mpf(bound.value) >= exact, bound.kind


def _log2_modulus_for(family: str, k: int, log2_result: float) -> float:
    """log2 of the |z| at which |T_k(z)| is 2**log2_result."""
    log2_coefficient = log_coefficient(family, k) / math.log(2.0)
    return (log2_coefficient - log2_result) / (2 * k - 1)


def test_times_term_brackets_the_exact_product():
    # The term is formed from the modulus alone, |c_k| / |z|**p: the value is
    # at least normalized times the exact product and within the guard
    # factors of it, at every |z|, beyond hypot's range, below the normal
    # range and where it overflows.
    rng = random.Random(20261104)
    huge = sys.float_info.max

    def argument(family: str, modulus: float) -> complex:
        if family == "theta":
            return complex(modulus)
        return cmath.rect(modulus, rng.uniform(-0.5 * math.pi, 0.5 * math.pi))

    cases = [
        (family, k, argument(family, 2.0 ** rng.uniform(-1000.0, 1000.0)))
        for family in ("stirling", "gauss", "theta")
        for k in range(1, 101)
    ]
    cases += [
        (family, k, argument(family, k * 2.0 ** rng.uniform(-2.0, 20.0)))
        for family in ("stirling", "gauss", "theta")
        for k in range(1, 101, 3)
    ]
    cases += [
        ("theta", rng.randint(101, 999), complex(2.0 ** rng.uniform(-1000.0, 1000.0)))
        for _ in range(100)
    ]
    for z in (complex(1e308, 1e308), complex(1.7e308, -1.7e308), complex(-huge, huge),
              complex(huge, 5e-324), complex(5e-324, -5e-324)):
        cases += [(family, k, z) for family in ("stirling", "gauss") for k in (1, 3)]
    for family in ("stirling", "gauss", "theta"):
        for k in (1, 2, 7, 40, 100) + ((500, 999) if family == "theta" else ()):
            for log2_result in (-1020.5, -1030.0, -1060.3, -1073.5, -1080.0, 1023.5, 1024.5):
                log2_modulus = _log2_modulus_for(family, k, log2_result)
                if -1070.0 < log2_modulus < 1020.0:
                    cases.append((family, k, argument(family, 2.0**log2_modulus)))
    kinds = {"normal": 0, "subnormal": 0, "inf": 0}
    for family, k, z in cases:
        normalized = rng.choice((1.0, 0.0721, 5.317, 2.0**70))
        value = bounds._times_term(normalized, family, k, z)
        assert brackets_exact_product(value, normalized, family, k, z), (family, k, z)
        if value == math.inf:
            kinds["inf"] += 1
        else:
            kinds["subnormal" if value < sys.float_info.min else "normal"] += 1
    assert min(kinds.values()) > 50, kinds


_PI2M1_DOWN = math.nextafter(math.nextafter(math.pi * math.pi - 1.0, 0.0), 0.0)

THETA_KINDS = (
    BoundKind.THETA_GAMMA_RATIO,
    BoundKind.THETA_SQRT_PIK,
    BoundKind.THETA_QUADRATIC,
)


def _uncached_theta_bound(k: int, t: float, kind: BoundKind) -> tuple[float, float] | None:
    """``(value, normalized)`` of ``rigorous_bound`` at a theta kind, formed
    inline as eta_k times the plain factor times the term, with eta_k
    recomputed at every call; None where refused."""
    if kind is BoundKind.THETA_GAMMA_RATIO:
        factor = up(math.sqrt(math.pi) * math.exp(math.lgamma(k + 0.5) - math.lgamma(k)))
    elif kind is BoundKind.THETA_SQRT_PIK:
        factor = up(math.sqrt(math.pi * k))
    elif t < k:
        return None
    else:
        factor = up((k / t) * (k / t) / _PI2M1_DOWN, 2)
    normalized = up(ceil_float(eta_fraction(k)) * up(factor, 12), 12)
    return bounds._times_term(normalized, "theta", k, t), normalized


def test_cached_constants_give_the_bits_of_the_uncached_formulas():
    # eta_k is cached per k; each bound is read twice, once to fill the
    # cache and once from it.
    for k in range(1, 1000):
        assert eta(k).hex() == ceil_float(eta_fraction(k)).hex()
    rng = random.Random(20261023)
    cases = [(rng.randint(1, 999), 10.0 ** rng.uniform(-6.0, 3.0)) for _ in range(8000)]
    overflowed = subnormal = 0
    band = _theta_subnormal_band()
    in_band = set(band)
    for k, t in cases + band:
        for kind in THETA_KINDS:
            want = _uncached_theta_bound(k, t, kind)
            if want is not None and (k, t) in in_band:
                assert brackets_exact_product(*want, "theta", k, complex(t)), (k, t, kind)
            for _ in range(2):
                got = rigorous_bound(kind, k, t, "theta")
                if want is None:
                    assert not got.applicable, (k, t, kind)
                    continue
                assert (got.value.hex(), got.normalized.hex()) == (
                    want[0].hex(), want[1].hex()), (k, t, kind)
            if want is None:
                continue
            overflowed += want[0] == math.inf and kind is BoundKind.THETA_GAMMA_RATIO
            subnormal += want[0] < sys.float_info.min
    assert overflowed > 100 and subnormal > 100


def test_theta_rungs_are_the_half_family_rungs_at_t():
    # The theta term is half the modulus of the half-family term at z = t,
    # so each theta rung is the half-family rung of the same base: equal
    # normalized factors bit for bit, and half the value wherever both
    # values are normal doubles.
    ladder = (
        (BoundKind.HALF_QUADRATIC, BoundKind.THETA_QUADRATIC),
        (BoundKind.HALF_GAMMA_RATIO, BoundKind.THETA_GAMMA_RATIO),
        (BoundKind.HALF_SQRT_PIK, BoundKind.THETA_SQRT_PIK),
    )
    rng = random.Random(20261019)
    cases = [
        (k, t)
        for k in range(1, 1000)
        for t in (10.0 ** rng.uniform(-3.0, 4.0), k * rng.uniform(0.5, 2.0))
    ]
    for k, t in cases:
        for target in (Target.R_KP1, Target.R_K):
            rungs = applicable_bounds(k, t, "theta", target)
            assert [r.kind for r in rungs] == [kind for _, kind in ladder]
            for rung, (base, _) in zip(rungs, ladder):
                half = rigorous_bound(base, k, complex(t), "gauss", target)
                assert rung.applicable is half.applicable, (k, t, base)
                if not rung.applicable:
                    assert rung.reason == half.reason
                    continue
                assert rung.normalized.hex() == half.normalized.hex(), (k, t, target, base)
                if 4 * sys.float_info.min < half.value < math.inf:
                    assert rung.value * 2.0 == half.value, (k, t, target, base)


#: The kinds ``rigorous_bound`` builds in each context, as the module
#: docstring lists them.
CONTEXT_KINDS = {
    "stirling": PLAIN_KINDS + CLASSICAL_KINDS,
    "gauss": (
        BoundKind.CK_QUADRATIC, BoundKind.HALF_QUADRATIC, BoundKind.HALF_GAMMA_RATIO,
        BoundKind.HALF_SQRT_PIK,
    ),
    "theta": THETA_KINDS,
}


@pytest.mark.parametrize("context", sorted(CONTEXT_KINDS))
def test_rigorous_bound_reads_every_kind_of_its_context_by_value(context):
    for kind in BoundKind:
        if kind not in CONTEXT_KINDS[context]:
            for request in (kind, kind.value):
                with pytest.raises(DomainError):
                    rigorous_bound(request, 3, 5.0 + 1.0j, context)
            continue
        for target in Target:
            bound = rigorous_bound(kind, 3, 5.0 + 1.0j, context, target)
            assert bound.kind is kind and bound.target is target
            assert rigorous_bound(kind.value, 3, 5.0 + 1.0j, context, target.value) == bound


def test_string_kinds_and_targets_select_what_the_enums_select():
    z = 5.0 + 1.0j
    half = rigorous_bound("half-gamma-ratio", 3, z, "gauss")
    assert half == rigorous_bound(BoundKind.HALF_GAMMA_RATIO, 3, z, "gauss", Target.R_KP1)
    assert half.normalized == 3.0402509551560226
    # a string target used to be taken for the after-k-terms one
    best = best_bound(3, z, "stirling", "before-k-th-term")
    assert best == best_bound(3, z, "stirling", Target.R_K)
    assert best.kind is BoundKind.WHITTAKER_WATSON and best.value == 2.3024811583113134e-07
    for context in CONTEXT_KINDS:
        by_value = applicable_bounds(3, z, context, "before-k-th-term")
        assert by_value == applicable_bounds(3, z, context, Target.R_K)
        assert all(b.target is Target.R_K for b in by_value)
    for call in (
        lambda: rigorous_bound("no-such-kind", 3, z, "stirling"),
        lambda: rigorous_bound(BoundKind.QUADRATIC, 3, z, "stirling", "after-k"),
        lambda: rigorous_bound(BoundKind.QUADRATIC, 3, z, "fresnel"),
        lambda: best_bound(3, z, "stirling", "after-k"),
        lambda: applicable_bounds(3, z, "gauss", Target.R_K.name),
    ):
        with pytest.raises(DomainError):
            call()


def test_best_bound_raises_when_nothing_applies():
    with pytest.raises(DomainError):
        best_bound(2, complex(-3.0, 1.0), "stirling", Target.R_KP1)
    with pytest.raises(DomainError):
        applicable_bounds(2, 1.0 + 0j, "fresnel")


@pytest.mark.parametrize(
    "z",
    [
        complex(1.0, math.nan), complex(math.nan, 1.0), complex(math.nan, math.nan),
        complex(math.inf, 1.0), complex(1.0, math.inf), complex(math.inf, 0.0),
        complex(1.0, -math.inf), complex(-math.inf, 1.0),
    ],
)
def test_an_argument_with_a_non_finite_part_has_no_applicable_bound(z):
    for target in Target:
        for kind in PLAIN_KINDS + CLASSICAL_KINDS:
            assert rigorous_bound(kind, 5, z, "stirling", target).applicable is False, kind
        half = rigorous_bound(BoundKind.HALF_GAMMA_RATIO, 5, z, "gauss", target)
        assert half.applicable is False
        for context in ("stirling", "gauss"):
            assert not any(b.applicable for b in applicable_bounds(5, z, context, target))
            with pytest.raises(DomainError, match="no applicable bound"):
                best_bound(5, z, context, target)
    # theta reads the real part as its height
    t = math.nan if math.isfinite(z.real) else z.real
    assert rigorous_bound(BoundKind.THETA_GAMMA_RATIO, 5, t, "theta").applicable is False
    with pytest.raises(DomainError, match="no applicable bound"):
        best_bound(5, complex(t, 0.0), "theta")


def test_containment_grid_shape():
    grid = containment_grid()
    assert len(grid) == 19
    assert all(z.real >= 0.0 for z in grid)
    assert len(set(grid)) == 19
    assert CONTAINMENT_T == (0.1, 1.0, 10.0, 40.0)


@pytest.mark.slow
def test_every_applicable_bound_contains_the_true_remainder_spot_checks():
    # Fast spot version of the exhaustive containment sweep that lives in
    # the acceptance gate.
    from gammatheta.oracle import oracle_remainder, oracle_theta_remainder

    for k, z in ((2, complex(0.5, 3.0)), (5, complex(4.0, 1.0))):
        truth = abs(oracle_remainder(z, k, "stirling", 20))
        for candidate in applicable_bounds(k, z, "stirling", Target.R_KP1):
            if candidate.applicable:
                assert truth <= candidate.value
    truth = abs(oracle_theta_remainder(3, 2.5, 20))
    for candidate in applicable_bounds(3, 2.5, "theta", Target.R_KP1):
        if candidate.applicable:
            assert truth <= candidate.value
