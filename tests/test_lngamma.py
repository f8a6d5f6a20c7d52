"""Certified log-gamma evaluation: containment, shifts, reflection, planning."""
from __future__ import annotations

import cmath
import math
import random

import mpmath as mp
import pytest
from conftest import ChargeReference, brackets_exact_product, fp_floor

from gammatheta import AccuracyError, ConsistencyError, DomainError
from gammatheta import bounds, lngamma, series
from gammatheta.bounds import CK_MAX_K, BoundKind, c_k, eta_fraction
from gammatheta.fputil import ceil_float, up
from gammatheta.series import partial_sum, term_coefficient
from gammatheta.lngamma import (
    CertifiedValue,
    TruncationPlan,
    choose_k,
    eval_lngamma,
    eval_lngamma_half,
)

RIGHT_POINTS = [
    complex(1.0, 0.0),
    complex(0.5, 0.0),
    complex(25.0, 0.0),
    complex(0.0, 10.0),
    complex(0.0, -3.0),
    complex(0.5, 40.0),
    complex(5.0, 1.0),
    complex(1e-3, 2.0),
    complex(300.0, 700.0),
]

LEFT_POINTS = [
    complex(-2.5, 1.0),
    complex(-7.3, -0.4),
    complex(-0.5, 12.0),
    complex(-40.0, 0.25),
]


def reference(z: complex) -> complex:
    with mp.workdps(40):
        return complex(mp.loggamma(mp.mpc(z)))


@pytest.mark.parametrize("z", RIGHT_POINTS + LEFT_POINTS)
def test_value_contains_the_reference_within_radius(z):
    result = eval_lngamma(z)
    assert isinstance(result, CertifiedValue)
    assert abs(result.value - reference(z)) <= result.radius
    assert result.radius < 1e-9  # default request targets the fp floor


@pytest.mark.parametrize("z", [complex(0.0, 0.0), complex(-1.0, 0.0), complex(-2.5, 0.0)])
def test_the_cut_is_rejected(z):
    with pytest.raises(DomainError):
        eval_lngamma(z)


@pytest.mark.parametrize("k", [None, 5])
@pytest.mark.parametrize(
    "z",
    [
        complex(-math.inf, 1.0),
        complex(-1.0, math.nan),
        complex(-1.0, math.inf),
        complex(math.inf, 1.0),
    ],
)
def test_non_finite_arguments_are_rejected(z, k):
    with pytest.raises(DomainError):
        eval_lngamma(z, k=k)
    if z.real >= 0.0:
        with pytest.raises(DomainError):
            eval_lngamma_half(z, k=k)
    for family in ("stirling", "gauss"):
        with pytest.raises(DomainError, match="z must be finite"):
            choose_k(z, 1e-6, family)


def test_reflection_is_flagged_and_contained():
    result = eval_lngamma(complex(-2.5, 1.0))
    assert "REFLECTED" in result.flags
    assert abs(result.value - reference(complex(-2.5, 1.0))) <= result.radius


def test_classic_values_are_reproduced():
    one = eval_lngamma(complex(1.0, 0.0), k=8)
    assert abs(one.value) <= one.radius
    half = eval_lngamma(complex(0.5, 0.0))
    assert abs(half.value - 0.5 * math.log(math.pi)) <= half.radius


def test_fixed_term_count_is_respected_and_shifts_follow_the_rule():
    result = eval_lngamma(complex(1.0, 0.0), k=8)
    assert result.plan.k == 8
    assert result.plan.shifts == 7  # 1 + 7 reaches |z'| = 8 >= k
    assert result.plan.truncation_bound > 0.0


def test_recurrence_consistency_between_adjacent_arguments():
    for z in (complex(3.0, 4.0), complex(0.5, 9.0), complex(12.0, -2.0)):
        a = eval_lngamma(z)
        b = eval_lngamma(z + 1)
        residual = abs(b.value - cmath.log(z) - a.value)
        assert residual <= a.radius + b.radius + 1e-13


def test_half_shift_agrees_with_the_plain_family():
    for z in (complex(2.0, 0.0), complex(0.5, 6.0), complex(10.0, 10.0)):
        half = eval_lngamma_half(z)
        plain = eval_lngamma(z + 0.5)
        assert abs(half.value - plain.value) <= half.radius + plain.radius


def test_half_shift_containment_against_the_reference():
    for z in (complex(0.0, 10.0), complex(0.5, 0.0), complex(7.0, 3.0)):
        result = eval_lngamma_half(z)
        want = reference(complex(z.real + 0.5, z.imag))
        assert abs(result.value - want) <= result.radius


def test_half_shift_requires_the_closed_right_half_plane():
    with pytest.raises(DomainError):
        eval_lngamma_half(complex(-0.1, 5.0))


def test_term_count_and_accuracy_are_mutually_exclusive():
    with pytest.raises(DomainError):
        eval_lngamma(complex(5.0, 0.0), k=4, accuracy=1e-10)


@pytest.mark.parametrize("k", [0, -3, "many", 2.0, True])
def test_term_count_validation(k):
    for evaluate, z in (
        (eval_lngamma, complex(5.0, 1.0)),
        (eval_lngamma, complex(-5.0, 1.0)),
        (eval_lngamma_half, complex(5.0, 1.0)),
    ):
        with pytest.raises(DomainError, match="term count"):
            evaluate(z, k=k)


def test_requested_accuracy_bounds_the_radius():
    for eps in (1e-4, 1e-8, 1e-11):
        result = eval_lngamma(complex(2.0, 3.0), accuracy=eps)
        assert result.plan.truncation_bound <= eps
        assert result.radius <= eps + 1e-12  # rounding budget rides on top


@pytest.mark.parametrize("k", [None, 5])
def test_values_that_overflow_are_refused(k):
    # ln Gamma(1e306) ~ 7e308 is not a double; the fp charge skips infinite
    # magnitudes, so an unchecked result would carry a 5e-324 radius.
    # Where |z| itself overflows, the refusal comes before any walk.
    for evaluate, z in (
        (eval_lngamma, complex(1e306, 0.0)),
        (eval_lngamma, complex(-1e306, 1.0)),
        (eval_lngamma_half, complex(1e306, 0.0)),
        (eval_lngamma, complex(1.5e308, 1e308)),
        (eval_lngamma, complex(-1.5e308, 1e308)),
        (eval_lngamma_half, complex(1.5e308, 1e308)),
    ):
        with pytest.raises(AccuracyError, match="overflows double precision"):
            evaluate(z, k=k)
    for family in ("stirling", "gauss"):
        with pytest.raises(AccuracyError, match="overflows double precision"):
            choose_k(complex(1.5e308, 1e308), 1e-6, family)
    assert math.isfinite(eval_lngamma(complex(1e305, 0.0), k=k).value.real)


@pytest.mark.parametrize("mode", [{}, {"k": 5}, {"accuracy": 1e-6}])
def test_an_intermediate_modulus_that_overflows_is_refused(mode):
    # |z| is finite here, but the modulus of the main terms (and of the floor's
    # scale) is not, or, at the last point, lngamma(-z) is a double and only
    # the reflected value overflows: the refusal is typed, never OverflowError.
    for evaluate, z in (
        (eval_lngamma, complex(2e305, 2e305)),
        (eval_lngamma, complex(-2e305, 2e305)),
        (eval_lngamma_half, complex(2e305, 2e305)),
        (eval_lngamma, complex(-2.4456452617903963e305, 7.565267331577863e304)),
    ):
        with pytest.raises(AccuracyError):
            evaluate(z, **mode)


def test_the_floor_keeps_its_bits_and_stays_finite_where_its_sum_overflows():
    # The floor is 32 ulp of |main terms| + |z| + 1, taken as 64 ulp of half
    # that sum: the same bits wherever the sum is finite, so every default
    # plan is unchanged, and a finite floor where only the sum overflows.
    rng = random.Random(20261105)
    for _ in range(3000):
        z = cmath.rect(10.0 ** rng.uniform(-3.0, 300.0), rng.uniform(-math.pi, math.pi))
        w = lngamma._shift(z, 1.0)[0]
        main = (w - 0.5) * cmath.log(w) - w
        whole = 32.0 * math.ulp(math.hypot(main.real, main.imag) + abs(z) + 1.0)
        assert fp_floor(z) == whole, z
    z = complex(2.4456452617903963e305, -7.565267331577863e304)
    assert fp_floor(z) < 1e300
    got = eval_lngamma(z, accuracy=1e300)
    assert got.plan == choose_k(z, None) and got.radius < 1e300


def test_unattainable_accuracy_raises_with_the_best_radius():
    with pytest.raises(AccuracyError) as info:
        eval_lngamma(complex(2.0, 3.0), accuracy=1e-30)
    assert info.value.best_radius is not None
    assert info.value.best_radius > 0.0


def test_plan_selection_is_minimal_and_monotone():
    plan = choose_k(complex(10.0, 0.0), 1.0)
    assert isinstance(plan, TruncationPlan)
    assert plan.k == 1
    loose = choose_k(complex(5.0, 5.0), 1e-3).k
    tight = choose_k(complex(5.0, 5.0), 1e-9).k
    assert loose <= tight
    with pytest.raises(DomainError):
        choose_k(complex(5.0, 5.0), 0.0)
    with pytest.raises(DomainError):
        choose_k(complex(5.0, 5.0), 1e-6, context="fresnel")


def test_plan_rejects_what_the_scan_cannot_reach():
    with pytest.raises(AccuracyError):
        choose_k(complex(0.5, 0.5), 1e-40)


def test_truncation_bound_decreases_with_k_for_a_fixed_argument():
    # Non-increase holds through the least-term region ~pi |z|.
    z = complex(0.0, 10.0)
    bounds = [eval_lngamma(z, k=k).plan.truncation_bound for k in range(1, 32)]
    assert all(b <= a for a, b in zip(bounds, bounds[1:]))


def test_radius_decreases_with_k_away_from_the_rounding_floor():
    # Once the truncation bound sinks below the ~1e-13 rounding budget the
    # radius flattens (and creeps up with the per-term charges), so the
    # non-increase claim applies to the truncation-dominated prefix.
    z = complex(0.0, 10.0)
    radii = [eval_lngamma(z, k=k).radius for k in range(1, 7)]
    assert all(b <= a for a, b in zip(radii, radii[1:]))


def test_large_arguments_stay_finite_and_contained():
    z = complex(5000.0, 0.0)
    result = eval_lngamma(z)
    assert math.isfinite(result.value.real)
    assert abs(result.value - reference(z)) <= result.radius


def test_imaginary_part_tracks_the_reference_branch():
    # No 2 pi jumps: the reflected/shifted assembly must land on the same
    # branch the reference implementation uses, not just the same modulus.
    for z in LEFT_POINTS + [complex(0.5, 40.0)]:
        result = eval_lngamma(z)
        assert abs(result.value.imag - reference(z).imag) <= result.radius


# -- the accuracy contract ---------------------------------------------------
# At these points z + s and z stepped up s times by 1.0 are different doubles,
# so a plan bounded at one and evaluated at the other can miss its target.

SHIFTED_PLAN_POINTS = [
    complex(0.5959789505447018, 0.8307046096890227),
    complex(0.0139853837494369, 2.659607015514653),
    complex(0.8671255084245141, -0.9535877157880019),
    complex(0.1273074741636127, 2.206674203566334),
]


def test_requested_accuracy_is_met_where_the_shifted_argument_rounds():
    eps = 9.484752793206757e-10
    result = eval_lngamma(complex(0.5959789505447018, 0.8307046096890227), accuracy=eps)
    assert result.plan.truncation_bound <= eps


@pytest.mark.parametrize("z", SHIFTED_PLAN_POINTS)
def test_the_evaluation_reports_the_plan_it_was_chosen_by(z):
    for eps in (1e-6, 1e-8, 1e-10, 2.3163171255012654e-11, 2.5609773923255426e-12):
        plain = eval_lngamma(z, accuracy=eps).plan
        assert choose_k(z, eps) == plain
        assert plain.truncation_bound <= eps
        half = eval_lngamma_half(z, accuracy=eps).plan
        assert choose_k(z, eps, context="gauss") == half
        assert half.truncation_bound <= eps



def test_truncation_bound_covers_its_exact_value_where_the_power_is_subnormal():
    # Reflected, then shifted 83 times to |w| >= 83, where (1/w)^165 is
    # subnormal but the ck-quadratic bound c_83 (83/|w|)^2 |T_83(w)| is not.
    z = complex(-0.020876011093886353, 0.013285529497193258)
    plan = eval_lngamma(z, k=83).plan
    w = -z
    for _ in range(plan.shifts):
        w += 1.0
    coeff = term_coefficient("stirling", 83)
    with mp.workdps(30):
        ww = mp.mpc(w)
        term = abs(mp.mpf(coeff.numerator) / coeff.denominator / ww**165)
        exact = mp.mpf(c_k(83)) * (83 / abs(ww)) ** 2 * term
    assert plan.bound_kind.value == "ck-quadratic"
    assert mp.mpf(plan.truncation_bound) >= exact


def charged(z: complex, family: str, k: int | None = None) -> tuple[complex, float]:
    """Value and radius of ``_eval_right`` at ``z`` along its own plan, with
    the fp charge kept in the reference accumulator."""
    plan = lngamma._resolve_request(z, family, k, None)
    fp = ChargeReference()
    offset = 0.0 if family == "stirling" else 0.5
    w, log_sum = z, complex(0.0, 0.0)
    for _ in range(plan.shifts):
        lw = cmath.log(w + offset)
        log_sum += lw
        fp.charge(max(abs(log_sum), abs(lw), 1.0), 2, 4)
        w += 1.0
    logw = cmath.log(w)
    main = lngamma._main_terms(w, logw, family)
    fp.charge(max(abs(main), abs(w) * abs(logw), 1.0), 6)
    value = main + partial_sum(family, plan.k, w) - log_sum
    fp.charge(max(abs(value), abs(main), 1.0), plan.k + 6)
    return value, plan.truncation_bound + fp.total


def test_the_radius_adds_the_fp_charges_in_order():
    # The evaluators add their charges to a plain float: equal bits show the
    # reference's amounts, added in its order.  Where a magnitude overflows it
    # is not charged, and the refusal reports the radius without it.
    rng = random.Random(20261106)
    for z in screen_points(300, 20261106):
        k = rng.choice((None, rng.randint(1, 40)))
        for family, evaluate in (("stirling", eval_lngamma), ("gauss", eval_lngamma_half)):
            value, radius = charged(z, family, k)
            got = evaluate(z, k=k)
            assert (got.value, got.radius) == (value, radius), (z, k, family)
        if z.real > 0.0 and z.imag != 0.0:
            # left of the axis the reflection adds its own 10 operations
            inner_value, inner_radius = charged(z, "stirling", k)
            log_sin = lngamma._log_sin_pi(-z)
            s = 1.0 if -z.imag > 0.0 else -1.0
            value = complex(math.log(math.pi), s * math.pi) - cmath.log(-z) - log_sin
            value -= inner_value
            fp = ChargeReference()
            fp.charge(max(abs(value), abs(log_sin), math.pi * abs(z), 1.0), 10)
            got = eval_lngamma(-z, k=k)
            assert (got.value, got.radius) == (value, inner_radius + fp.total), z
    for z in (complex(1e306, 0.0), complex(1e306, 1e300)):
        value, radius = charged(z, "stirling", 5)
        with pytest.raises(AccuracyError, match=f"radius {radius}"):
            eval_lngamma(z, k=5)


def test_a_reflected_target_below_the_floor_is_refused_at_the_callers_value():
    # The inner call plans -z at half the target, so the caller's threshold
    # is twice the floor at -z; 5e-324, whose half is 0.0, is refused too.
    for z in (complex(-2.5, 1.0), complex(-0.3, -40.0), complex(-7e4, 2e-3)):
        threshold = 2.0 * fp_floor(-z)
        below = math.nextafter(threshold, 0.0)
        for accuracy in (5e-324, 1e-300, below):
            with pytest.raises(AccuracyError) as info:
                eval_lngamma(z, accuracy=accuracy)
            assert str(info.value) == (
                f"target accuracy {accuracy:g} is unattainable (best achievable "
                f"radius ~{threshold:.3g})"
            )
            assert info.value.best_radius == threshold
        assert eval_lngamma(z, accuracy=threshold).plan == choose_k(-z, threshold / 2.0)
    with pytest.raises(DomainError, match="must be positive, got -1.0"):
        eval_lngamma(complex(-2.5, 1.0), accuracy=-1.0)


def test_the_rung_is_the_catalog_bound_bit_for_bit():
    # The certified rung against rigorous_bound at the same k and w: k across
    # the c_k switch at 100/101, |w| from k to 2**1000, and w where the
    # value lies at the subnormal edge.
    rng = random.Random(20261031)
    subnormal = 0
    for i in range(3000):
        family = rng.choice(("stirling", "gauss"))
        k = rng.choice((rng.randint(1, 999), rng.randint(95, 106), rng.randint(1, 12)))
        if i % 3 == 0:
            # log|w| that puts the screen's estimate of the value at 2**-1022 .. 2**-1080
            log_value = -rng.uniform(1022.0, 1080.0) * math.log(2.0)
            screen = series._row(family, k)[4]
            log_w = (screen - log_value) / (2 * k + 1)
            if not math.log(k) <= log_w < 1000 * math.log(2.0):
                continue
        else:
            log_w = rng.uniform(math.log(k), 1000 * math.log(2.0))
        w = cmath.rect(math.exp(log_w), rng.uniform(-0.5 * math.pi, 0.5 * math.pi))
        if abs(w) < k or w.real < 0.0:
            continue
        kind, value = bounds._quadratic_rung(family, k, w)
        catalog = bounds.rigorous_bound(kind, k, w, family)
        assert (catalog.kind, catalog.value.hex()) == (kind, value.hex()), (family, k, w)
        subnormal += 0.0 < value < 2.0 ** -1022
    assert subnormal >= 200, subnormal


# -- the screen in choose_k --------------------------------------------------
# The reference is the exhaustive upward scan the log-space screen replaced:
# an exact plan at every k, with the quadratic rung written out as the
# bounds module formed it before the rung was shared.

_PI2M1_DOWN = math.nextafter(math.nextafter(math.pi * math.pi - 1.0, 0.0), 0.0)


def reference_factor(family: str, k: int, w: complex) -> tuple[BoundKind, float]:
    """Kind and normalized factor of the quadratic rung at w."""
    ratio = k / abs(w)
    if k <= CK_MAX_K:
        kind, factor = BoundKind.CK_QUADRATIC, up(c_k(k) * ratio * ratio, 2)
    else:
        kind = BoundKind.QUADRATIC if family == "stirling" else BoundKind.HALF_QUADRATIC
        factor = up(ratio * ratio / _PI2M1_DOWN, 2)
    normalized = up(factor, 12)
    if family == "gauss":
        normalized = up(ceil_float(eta_fraction(k)) * normalized, 12)
    return kind, normalized


def reference_rung(family: str, k: int, w: complex) -> tuple[BoundKind, float]:
    kind, normalized = reference_factor(family, k, w)
    return kind, bounds._times_term(normalized, family, k, w)


def reference_plan(z: complex, k: int, family: str) -> TruncationPlan:
    w, shifts = lngamma._shift(z, float(k))
    return TruncationPlan(k, shifts, *reference_rung(family, k, w))


def exhaustive_choose_k(z: complex, eps: float | None, family: str) -> TruncationPlan:
    floor = fp_floor(z)
    if eps is None:
        eps = floor
    if eps >= floor:
        for k in range(1, lngamma._K_CAP + 1):
            plan = reference_plan(z, k, family)
            if plan.truncation_bound <= eps:
                return plan
        raise ConsistencyError(f"no k meets {eps:g} at z={z}")
    raise AccuracyError(
        f"target accuracy {eps:g} is unattainable (best achievable radius "
        f"~{floor:.3g})",
        best_radius=floor,
    )


def outcome(choose, z: complex, eps: float, family: str):
    """The plan, or the refusal's text and best radius."""
    try:
        return choose(z, eps, family)
    except AccuracyError as exc:
        return str(exc), exc.best_radius


def screen_points(count: int, seed: int) -> list[complex]:
    """|z| log-uniform in [1e-3, 1e15] over the whole plane; a point left of
    the axis is planned at -z, as the reflection does."""
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        z = cmath.rect(10.0 ** rng.uniform(-3.0, 15.0), rng.uniform(-math.pi, math.pi))
        points.append(-z if z.real < 0.0 else z)
    return points


def test_the_screen_picks_the_plan_of_the_exhaustive_scan():
    rng = random.Random(20261019)
    checked = 0
    for z in screen_points(2000, 20261019):
        for family in ("stirling", "gauss"):
            # the default target (the floor), then one explicit target from
            # 1e-3 to below the floating-point floor
            for eps in (None, 10.0 ** rng.uniform(-17.0, -3.0)):
                want = outcome(exhaustive_choose_k, z, eps, family)
                assert outcome(choose_k, z, eps, family) == want, (z, eps, family)
                checked += 1
    assert checked == 8000


def test_fixed_term_plans_keep_the_rung_across_its_switches():
    # k in 1...999 crosses ck-quadratic -> quadratic at k = 100, and the
    # gauss plans carry eta_k.
    # Every 50th rung is also held against the exact product at its w.
    rng = random.Random(20261020)
    for i, z in enumerate(screen_points(2000, 20261020)):
        k = rng.randint(1, 999)
        for family in ("stirling", "gauss"):
            plan = lngamma._plan(z, k, family)
            assert plan == reference_plan(z, k, family), (z, k)
            if i % 50 == 0:
                w = lngamma._shift(z, float(k))[0]
                normalized = reference_factor(family, k, w)[1]
                assert brackets_exact_product(
                    plan.truncation_bound, normalized, family, k, w), (z, k, family)


def test_the_default_value_is_within_64_ulp_of_the_reference():
    # The default target is the floor choose_k takes on its own walk; the
    # value then carries rounding noise only.  |z| is log-uniform in
    # 0.1...1e6 over the closed right half-plane, off the discs of radius
    # 0.3 around the zeros of each family, where the error is only absolute.
    rng = random.Random(20261107)
    for family, evaluate, zeros, offset in (
        ("stirling", eval_lngamma, (1.0, 2.0), 0.0),
        ("gauss", eval_lngamma_half, (0.5, 1.5), 0.5),
    ):
        checked = 0
        while checked < 1500:
            angle = rng.uniform(-0.5 * math.pi, 0.5 * math.pi)
            z = cmath.rect(10.0 ** rng.uniform(-1.0, 6.0), angle)
            if min(abs(z - zero) for zero in zeros) < 0.3:
                continue
            result = evaluate(z)
            assert result.plan == choose_k(z, None, family), z
            with mp.workdps(40):
                want = mp.loggamma(mp.mpc(z) + offset)
                error = abs(mp.mpc(result.value) - want)
            assert error <= 64 * math.ulp(max(abs(complex(want)), 1.0)), (z, family)
            checked += 1
    for z in LEFT_POINTS:
        # the reflection plans at -z, with the floor there
        assert eval_lngamma(z).plan == choose_k(-z, None)


def test_the_screen_builds_one_exact_bound_per_call(monkeypatch):
    built = []
    rung = lngamma._quadratic_rung
    monkeypatch.setattr(
        lngamma, "_quadratic_rung", lambda *args: built.append(args) or rung(*args)
    )
    points = screen_points(500, 20261021)
    for z in points:
        eval_lngamma(z)
    assert len(built) == len(points)


@pytest.mark.parametrize("estimate", [math.inf, -math.inf, math.nan])
def test_a_non_finite_estimate_is_decided_by_the_exact_bound(monkeypatch, estimate):
    # every row's screen column reads the planted estimate
    for family in ("stirling", "gauss"):
        series._row(family, lngamma._K_CAP)
        planted = [None] + [row[:4] + (estimate,) for row in series._ROWS[family][1:]]
        monkeypatch.setitem(series._ROWS, family, planted)
    for z in screen_points(40, 20261022):
        for family in ("stirling", "gauss"):
            want = outcome(exhaustive_choose_k, z, None, family)
            assert outcome(choose_k, z, None, family) == want


def test_every_target_at_the_floor_is_met_by_eight_terms():
    # At |w| >= k the bound at k = 8 is under 1e-16, below the floor's
    # 32 ulp(1): no target the floor admits can exhaust the scan.
    for z in screen_points(2000, 20261023):
        for family in ("stirling", "gauss"):
            assert choose_k(z, fp_floor(z), family).k <= 8, (z, family)


def test_an_exhausted_scan_is_an_internal_error(monkeypatch):
    # Cut at k = 3 the scan can end without a plan; the refusal below the
    # floor and the plans within reach are unchanged.
    monkeypatch.setattr(lngamma, "_K_CAP", 3)
    for z in (complex(1.5, 2.0), complex(6.0, 1.0), complex(0.0, 9.0), complex(2e-3, 0.0)):
        for family in ("stirling", "gauss"):
            with pytest.raises(ConsistencyError, match="internal: no k <= 3"):
                choose_k(z, 1e-12, family)
            for eps in (1e-2, fp_floor(z) / 2.0):
                want = outcome(exhaustive_choose_k, z, eps, family)
                assert outcome(choose_k, z, eps, family) == want, (z, eps, family)


def test_a_public_plan_left_of_the_axis_is_refused_as_before():
    # No rung applies at Re w < 0, so the screen defers to best_bound there.
    with pytest.raises(DomainError, match="no applicable bound for k=1"):
        choose_k(complex(-0.5, 3.0), 1e-6)
