"""Series terms for the three expansions and the least-term machinery."""
from __future__ import annotations

import cmath
import math
import random
import threading
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammatheta import DomainError, ResourceLimitError, bernoulli, series
from gammatheta.bernoulli import MAX_INDEX
from gammatheta.series import (
    MinTermReport,
    gauss_term,
    k_min,
    partial_sum,
    stirling_term,
    term_coefficient,
    theta_term,
)
from gammatheta.theta import eval_theta


def log_theta_term(j: int, t: float) -> float:
    """log of the j-th theta term at t, from the exact coefficient."""
    c = term_coefficient("theta", j)
    return math.log(c.numerator) - math.log(c.denominator) - (2 * j - 1) * math.log(t)


def unimodality_check(t: float, k_max: int) -> bool:
    """Verify the theta terms strictly decrease up to the least term and
    strictly increase after it, through index ``k_max``."""
    report = k_min(t)
    logs = [log_theta_term(j, float(t)) for j in range(1, k_max + 2)]
    for j in range(1, min(report.k_min, k_max + 1)):
        if not logs[j - 1] > logs[j]:
            return False
    for j in range(report.k_min + 1, k_max):
        if not logs[j - 1] < logs[j]:
            return False
    return True


def term_ratio(j: int, t: float) -> float:
    """``theta_term(j, t) / theta_term(j+1, t)``, stable against over- and
    underflow of the individual terms.

    For growing ``j`` this approaches ``4 pi^2 t^2 / (2j (2j-1))`` from
    below at the stated ``O(4**-j)`` relative distance.
    """
    a = theta_term(j, t)
    b = theta_term(j + 1, t)
    if 0.0 < a < math.inf and 0.0 < b < math.inf:
        ratio = a / b
        if 0.0 < ratio < math.inf:
            return ratio
    return math.exp(log_theta_term(j, float(t)) - log_theta_term(j + 1, float(t)))


# Least-term indices for the theta family, frozen reference values.
KMIN_PINS = {1: 4, 2: 7, 5: 16, 10: 32, 20: 64, 50: 158, 100: 315}


def test_term_coefficients_low_orders_are_exact():
    assert term_coefficient("stirling", 1) == Fraction(1, 12)
    assert term_coefficient("stirling", 2) == Fraction(-1, 360)
    assert term_coefficient("gauss", 1) == Fraction(-1, 24)
    assert term_coefficient("theta", 1) == Fraction(1, 48)


def test_term_coefficient_rejects_unknown_kind_and_bad_index():
    with pytest.raises(DomainError):
        term_coefficient("euler", 1)
    with pytest.raises(DomainError):
        term_coefficient("stirling", 0)
    with pytest.raises(ResourceLimitError):
        term_coefficient("stirling", 1200)


@pytest.mark.parametrize("j", [1, 2, 3, 5, 10, 25])
@pytest.mark.parametrize(
    "z",
    [2.0 + 0j, 0.5 + 3j, 10j, -1 + 8j, 40.0 + 0j, 5e-324 + 0j, 1e-300 + 1e-300j, 1e-200 + 0j],
)
def test_stirling_terms_match_high_precision_reference(j, z):
    coeff = term_coefficient("stirling", j)
    with mp.workdps(40):
        want = mp.mpf(coeff.numerator) / coeff.denominator / mp.mpc(z) ** (2 * j - 1)
        got = stirling_term(j, z)
        if abs(want) < 1e300:
            assert abs(got - complex(want)) <= 1e-13 * abs(want)
        else:
            # an overflowing term: a part is 0 where the true part is, and
            # +-inf with the true sign elsewhere, never NaN
            for part, want_part in ((got.real, want.real), (got.imag, want.imag)):
                if want_part == 0:
                    assert part == 0.0
                else:
                    assert part == math.copysign(math.inf, want_part)


def _log2_coefficient(kind: str, k: int) -> float:
    coeff = term_coefficient(kind, k)
    return math.log2(abs(coeff.numerator)) - math.log2(coeff.denominator)


def _term_sweep() -> list[tuple[str, int, complex]]:
    """Seeded (family, k, z) over k = 1..999 and all four quadrants: per k
    and family, one z in each quadrant with |z| log-uniform in
    [1e-320, 1e308], where most terms leave the double range, and one z
    placed so that log2 |T_k(z)| is uniform in [-1020, 1020]."""
    rng = random.Random(20161018)
    cases = [("stirling", 29, complex(406764.75077007414, 209527.8192131333))]
    for k in range(1, 1000):
        p = 2 * k - 1
        for i, kind in enumerate(("stirling", "gauss")):
            quadrant = [(q + rng.random()) * math.pi / 2 for q in range(4)]
            for angle in quadrant:
                modulus = 10.0 ** rng.uniform(-320.0, 308.0)
                cases.append((kind, k, cmath.rect(modulus, angle)))
            log_modulus = (_log2_coefficient(kind, k) - rng.uniform(-1020.0, 1020.0)) / p
            if abs(log_modulus) < 1020.0:
                cases.append((kind, k, cmath.rect(2.0**log_modulus, quadrant[(k + i) % 4])))
    return cases


def test_terms_carry_their_exponent_across_the_double_range():
    # (1/z)^p in doubles carries about p roundings, so the tolerance is
    # 4 ulp per factor of the power; a term formed from logs is off by
    # about p log|z| ulp, and one whose power went subnormal by far more.
    checked = 0
    for kind, k, z in _term_sweep():
        p = 2 * k - 1
        got = (stirling_term if kind == "stirling" else gauss_term)(k, z)
        assert not (math.isnan(got.real) or math.isnan(got.imag)), (kind, k, z)
        log2_size = _log2_coefficient(kind, k) - p * math.log2(abs(z))
        if log2_size > 1025.0:
            assert abs(got) == math.inf, (kind, k, z)
        elif log2_size < -1076.0:
            assert got == 0, (kind, k, z)
        else:
            coeff = term_coefficient(kind, k)
            with mp.workdps(30):
                want = mp.mpf(coeff.numerator) / coeff.denominator / mp.mpc(z) ** p
                size = abs(want)
                if size < mp.mpf(2) ** 1024:
                    error = abs(mp.mpc(got) - want)
                    assert error <= 4 * p * math.ulp(float(size)), (kind, k, z)
                    checked += 1
    assert checked > 2000


@pytest.mark.parametrize("j", [1, 2, 7, 40, 100])
def test_gauss_and_stirling_terms_differ_by_the_scaled_ratio(j):
    # |gauss term| = (1 - 2^(1-2j)) |stirling term|, tight to ~10 ulp.
    z = complex(3.0, 4.0)
    expected = (1.0 - 2.0 ** (1 - 2 * j)) * abs(stirling_term(j, z))
    assert math.isclose(abs(gauss_term(j, z)), expected, rel_tol=2.3e-15)


def test_stirling_terms_on_the_imaginary_axis_are_negative_imaginary():
    # i * T_j(iy) > 0: each term is a pure negative-imaginary number there.
    for j in (1, 2, 3, 8):
        for y in (0.5, 3.0, 50.0):
            v = stirling_term(j, complex(0.0, y))
            assert v.real == 0.0
            assert v.imag < 0.0


def test_theta_term_matches_coefficient_over_odd_power():
    assert theta_term(1, 2.0) == pytest.approx(1.0 / 96.0, rel=1e-15)
    coeff = term_coefficient("theta", 5)
    want = float(Fraction(coeff) / Fraction(3) ** 9)
    assert theta_term(5, 3.0) == pytest.approx(want, rel=1e-14)


def test_theta_terms_are_positive_and_finite_even_when_tiny():
    # At t = 300 the early terms underflow doubles; the log-space path must
    # still order them correctly for the least-term scan.
    assert theta_term(1, 300.0) >= 0.0
    report = k_min(300.0)
    assert report.k_min == pytest.approx(math.floor(math.pi * 300 + 1.25), abs=1)


def test_partial_sum_equals_the_explicit_term_total():
    z = complex(1.5, 2.5)
    total = sum(stirling_term(j, z) for j in range(1, 9))
    assert partial_sum("stirling", 8, z) == pytest.approx(total, rel=1e-15)
    t = 7.0
    total_theta = sum(theta_term(j, t) for j in range(1, 13))
    assert partial_sum("theta", 12, t).real == pytest.approx(total_theta, rel=1e-14)
    # T_2 = -inf and T_3 = +inf at 1e-200; the larger, later term decides
    assert partial_sum("stirling", 3, 1e-200) == complex(math.inf, 0.0)
    # |z| >= k: the term-ratio recurrence, against the scaled terms
    z = complex(6.0, 8.0)
    total = sum(stirling_term(j, z) for j in range(1, 9))
    assert partial_sum("stirling", 8, z) == pytest.approx(total, rel=1e-15)


def _exact_partial_sum(kind: str, k: int, w: complex) -> tuple[Fraction, Fraction, Fraction]:
    """``(Re, Im)`` of the sum of the first k terms at the dyadic ``w``, in
    exact rationals, and ``|T_1|**2``.  With k <= |w| each term is below
    1/pi**2 times the one before, so the terms stop once one falls under
    2**-200 |T_1|: the tail left out is under 2**-199 |T_1|."""
    re, im = Fraction(w.real), Fraction(w.imag)
    norm = re * re + im * im
    inv_re, inv_im = re / norm, -im / norm
    x_re, x_im = inv_re * inv_re - inv_im * inv_im, 2 * inv_re * inv_im
    c = term_coefficient(kind, 1)
    t_re, t_im = c * inv_re, c * inv_im
    first = t_re * t_re + t_im * t_im
    s_re, s_im = t_re, t_im
    for j in range(2, k + 1):
        ratio = term_coefficient(kind, j) / c
        c = term_coefficient(kind, j)
        t_re, t_im = (
            ratio * (t_re * x_re - t_im * x_im),
            ratio * (t_re * x_im + t_im * x_re),
        )
        if (t_re * t_re + t_im * t_im) * 2**400 < first:
            break
        s_re, s_im = s_re + t_re, s_im + t_im
    return s_re, s_im, first


def _recurrence_points(k: int, rng: random.Random) -> list[complex]:
    """Points with |w| from max(k, 1) to 1e300 over the closed right
    half-plane: |w| = k on both axes, and one point in each of four angular
    sectors of Re w >= 0 with |w| log-uniform; and two near the top of the
    double range, where 1/w is formed from the scaled inverse."""
    low = max(k, 1)
    points = [complex(low, 0.0), complex(0.0, low), complex(0.0, -low)]
    points += [complex(1e308, -1e308), complex(2.0**1000, 2.0**-1000)]
    for sector in range(4):
        angle = (sector - 2 + rng.random()) * math.pi / 4
        w = cmath.rect(low * 10.0 ** rng.uniform(0.0, 300.0 - math.log10(low)), angle)
        while abs(w) < low:
            w *= 1.0 + 2.0**-50
        points.append(w)
    return points


def test_recurrence_sum_matches_the_exact_rational_sum():
    # At |w| >= max(k, 1) the sum runs the term-ratio recurrence.  Its
    # error is a few ulp of |T_1| (partial_sum's docstring), far inside the
    # k-operation share, 2k ulp of a scale >= 1, that ``_eval_right``
    # charges for it; the scaled-term loop agrees to the same tolerance.
    rng = random.Random(20261019)
    checked = 0
    for kind, term in (("stirling", stirling_term), ("gauss", gauss_term)):
        for k in (1, 2, 5, 20, 100, 101, 500, 999):
            for w in _recurrence_points(k, rng):
                got = partial_sum(kind, k, w)
                s_re, s_im, first_sq = _exact_partial_sum(kind, k, w)
                d_re, d_im = Fraction(got.real) - s_re, Fraction(got.imag) - s_im
                # relative to |T_1| first: squares of |w| ~ 1e300 underflow
                first = abs(term(1, w))
                error = math.sqrt(float((d_re * d_re + d_im * d_im) / first_sq)) * first
                tolerance = 16 * math.ulp(first)
                assert error <= tolerance, (kind, k, w, error / math.ulp(first))
                assert error < 2 * k * math.ulp(1.0), (kind, k, w)
                loop = complex(0.0, 0.0)
                for j in range(1, k + 1):
                    loop += term(j, w)
                assert abs(got - loop) <= tolerance, (kind, k, w)
                checked += 1
    assert checked == 2 * 8 * 9


@pytest.mark.parametrize(("t", "expected"), sorted(KMIN_PINS.items()))
def test_least_term_indices_match_reference(t, expected):
    report = k_min(float(t))
    assert isinstance(report, MinTermReport)
    assert report.k_min == expected
    assert report.t_min > 0.0


def test_least_term_index_tracks_pi_t_band():
    # k_min is floor(pi t + 5/4) up to +-1 across the working range.
    t = 1.0
    while t <= 100.0:
        predicted = math.floor(math.pi * t + 1.25)
        assert abs(k_min(t).k_min - predicted) <= 1
        t *= 1.37
    assert abs(k_min(100.0).k_min - math.floor(100 * math.pi + 1.25)) <= 1


def test_least_term_size_matches_the_asymptotic_form():
    # T_min(t) ~ e^(-2 pi t) / (2 pi sqrt(t)) within a 5/t relative band
    # for t >= 10; evaluated in mp arithmetic because the values underflow
    # doubles long before t = 100.
    for t in (10.0, 25.0, 60.0, 100.0):
        report = k_min(t)
        coeff = term_coefficient("theta", report.k_min)
        with mp.workdps(60):
            exact = mp.mpf(coeff.numerator) / coeff.denominator / mp.mpf(t) ** (
                2 * report.k_min - 1
            )
            model = mp.e ** (-2 * mp.pi * t) / (2 * mp.pi * mp.sqrt(t))
            ratio = exact / model
            assert 1 - 5.0 / t <= ratio <= 1 + 5.0 / t


def test_least_term_scan_rejects_bad_arguments():
    with pytest.raises(DomainError):
        k_min(0.0)
    with pytest.raises(DomainError):
        k_min(-3.0)
    with pytest.raises(DomainError):
        k_min(math.inf)


def test_least_term_beyond_the_bernoulli_cap_is_a_resource_error():
    # k = 999 is the last index whose successor the cap admits to the ratio
    # test; from t ~ 318 the least term lies past it.
    assert k_min(317.9).k_min == 999
    with pytest.raises(ResourceLimitError):
        k_min(330.0)
    with pytest.raises(ResourceLimitError):
        eval_theta(330.0)


def _scanned_k_min(t: float) -> int:
    """The least-term index by the ratio test over the whole table: the
    first k with ``c_(k+1) / c_k >= t**2``, formed from the stored
    mantissas and exponents, refused once k + 1 passes the cap."""
    square = t * t
    _, m, e = series._coefficient("theta", 1)
    k = 1
    while True:
        if 2 * (k + 1) > MAX_INDEX:
            raise ResourceLimitError(
                f"least term of the theta family at t={t} lies beyond the "
                f"Bernoulli cap (scanned to k={k})"
            )
        _, m_next, e_next = series._coefficient("theta", k + 1)
        if math.ldexp(m_next / m, e_next - e) >= square:
            return k
        m, e = m_next, e_next
        k += 1


def _outcome(scan, t: float):
    try:
        return scan(t)
    except ResourceLimitError as exc:
        return str(exc)


def test_the_refusal_before_the_table_grows_matches_the_table_scan():
    # k_min refuses t with t*t above the stored k = 999 ratio before it grows
    # the table; that is the scan's refusal because the ratios increase
    ratios = []
    _, m, e = series._coefficient("theta", 1)
    for k in range(1, MAX_INDEX // 2):
        _, m_next, e_next = series._coefficient("theta", k + 1)
        ratios.append(math.ldexp(m_next / m, e_next - e))
        m, e = m_next, e_next
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == series._LAST_RATIO == float.fromhex("0x1.8acc085cbbe27p+16")
    edge = math.sqrt(series._LAST_RATIO)
    heights = [edge]
    for direction in (0.0, math.inf):
        t = edge
        for _ in range(40):
            t = math.nextafter(t, direction)
            heights.append(t)
    heights += [318.0, 1000.0, 1e200]
    outcomes = set()
    for t in heights:
        scanned = _outcome(_scanned_k_min, t)
        assert _outcome(lambda t: k_min(t).k_min, t) == scanned, t
        outcomes.add(type(scanned))
    assert outcomes == {int, str}


def test_a_refused_height_does_not_grow_the_bernoulli_table(monkeypatch):
    fresh = bernoulli.BernoulliTable()
    seeded = len(fresh._even)
    monkeypatch.setattr(bernoulli, "_SHARED", fresh)
    monkeypatch.setitem(series._ROWS, "theta", [None])
    message = r"at t=1000\.0 lies beyond the Bernoulli cap \(scanned to k=1000\)"
    with pytest.raises(ResourceLimitError, match=message):
        k_min(1000.0)
    assert len(fresh._even) == seeded


def _exact_theta_term(j: int, t: float) -> float:
    """The j-th theta term as the exact rational rounded once."""
    try:
        return float(term_coefficient("theta", j) / Fraction(t) ** (2 * j - 1))
    except OverflowError:
        return math.inf


def test_theta_terms_past_the_double_range_are_the_rounded_rational():
    # Around each edge of the exponent rule, and at the first term it
    # decides, theta_term has the bits of the exact rational rounded once;
    # at the small fixed heights the terms far past k_min overflow.
    rng = random.Random(20261020)
    heights = [0.25, 0.5, 1.0, 3.0, 10.0]
    heights += [10.0 ** rng.uniform(math.log10(0.25), math.log10(318.0)) for _ in range(32)]
    heights += [10.0 ** rng.uniform(math.log10(118.0), math.log10(318.0)) for _ in range(32)]
    checked = {"zero": 0, "inf": 0, "first": 0}
    for t in heights:
        first_skipped = None
        for j in range(1, MAX_INDEX // 2 + 1):
            size = _log2_coefficient("theta", j) - (2 * j - 1) * math.log2(t)
            near_zero, near_inf = abs(size + 1076.0) <= 3.0, abs(size - 1025.0) <= 3.0
            first = first_skipped is None and size < -1076.0
            if first:
                first_skipped = j
            if near_zero or near_inf or first:
                got = theta_term(j, t)
                assert got.hex() == _exact_theta_term(j, t).hex(), (j, t)
                checked["zero"] += near_zero
                checked["inf"] += near_inf
                checked["first"] += first
    assert checked["zero"] >= 100 and checked["inf"] >= 20 and checked["first"] >= 30, checked


def test_a_theta_term_past_the_double_range_forms_no_rational(monkeypatch):
    # the coefficients are cached first; then no Fraction may be formed
    for j in (900, 999):
        term_coefficient("theta", j)

    def no_fraction(*args):
        raise AssertionError("an exact rational was formed")

    monkeypatch.setattr(series, "Fraction", no_fraction)
    zero = theta_term(900, 300.0)
    assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
    assert theta_term(999, 0.5) == math.inf


def test_theta_terms_are_unimodal_around_the_least_term():
    for t in (0.7, 3.0, 12.0):
        assert unimodality_check(t, k_max=k_min(t).k_min + 25)


def test_term_ratio_at_unit_argument():
    assert term_ratio(1, 1.0) == pytest.approx(120.0 / 7.0, rel=1e-14)


def test_term_ratio_approaches_the_quadratic_model_from_below():
    # gap/model ~ (3/4) 4^(-j); assert the sign and the decay envelope.
    t = 5.0
    for j in (3, 5, 8, 10, 15):
        model = 4 * math.pi**2 * t**2 / (2 * j * (2 * j - 1))
        gap = (model - term_ratio(j, t)) / model
        assert 0.0 < gap < 4.0**-j + 1e-13


@settings(max_examples=40, deadline=None)
@given(
    j=st.integers(min_value=1, max_value=60),
    t=st.floats(min_value=0.3, max_value=400.0),
)
def test_term_ratio_is_stable_where_terms_overflow_or_underflow(j, t):
    # Direct division of theta terms can hit 0/0 or inf/inf; the ratio
    # accessor must stay finite and positive regardless.
    ratio = term_ratio(j, t)
    assert ratio > 0.0
    assert math.isfinite(ratio)


def test_term_index_validation():
    with pytest.raises(DomainError):
        stirling_term(0, 1 + 1j)
    with pytest.raises(DomainError):
        stirling_term(True, 2 + 1j)
    with pytest.raises(DomainError):
        partial_sum("stirling", True, 3)
    with pytest.raises(ResourceLimitError):
        theta_term(1100, 5.0)


def _summed_one_at_a_time(k: int, t: float):
    """Adding theta_term(j, t) for j = 1..k, stopping at +inf, or the
    error's type and text."""
    try:
        total = 0.0
        for j in range(1, k + 1):
            total += theta_term(j, t)
            if total == math.inf:
                break
        return total.hex()
    except (DomainError, ResourceLimitError) as exc:
        return type(exc).__name__, str(exc)


def _summed(k: int, t: float):
    try:
        return partial_sum("theta", k, t).hex()
    except (DomainError, ResourceLimitError) as exc:
        return type(exc).__name__, str(exc)


def test_the_theta_sum_is_its_terms_added_one_at_a_time():
    # auto k and fixed k past k_min up to the cap and beyond it; at t ~ 4.1
    # the powers t**(2j-1) overflow from j = 200 on, and refused heights
    # and counts past the cap keep theta_term's errors
    rng = random.Random(20261031)
    cases = [(4.1, 200), (4.1, 1000), (4.1, 1001), (0.5, 1001), (300.0, 1001)]
    cases += [(t, k) for t in (0.0, -1.0, math.inf, math.nan) for k in (0, 1, 5)]
    for _ in range(150):
        t = 10.0 ** rng.uniform(-6.0, math.log10(318.0))
        auto = k_min(t).k_min
        cases.append((t, auto))
        if t < 40.0:  # above it the exact rationals make a fixed-k sum slow
            cases.append((t, rng.randint(auto + 1, 1000)))
    for t, k in cases:
        assert _summed(k, t) == _summed_one_at_a_time(k, t), (t, k)


def test_k_min_is_the_coefficient_scan_on_a_dense_grid():
    # the least-term index against a plain scan over _coefficient's ratios:
    # log-spaced heights up to the cap, and each ratio's edge and its
    # neighbours a few ulps away
    ratios = [None]
    _, m, e = series._coefficient("theta", 1)
    for k in range(1, MAX_INDEX // 2):
        _, m_next, e_next = series._coefficient("theta", k + 1)
        ratios.append(math.ldexp(m_next / m, e_next - e))
        m, e = m_next, e_next
    heights = [10.0 ** (-4.0 + 6.5 * i / 3000) for i in range(3001)]
    for ratio in ratios[1:]:
        t = math.sqrt(ratio)
        heights.append(t)
        for direction in (0.0, math.inf):
            u = t
            for _ in range(3):
                u = math.nextafter(u, direction)
                heights.append(u)
    checked = 0
    for t in heights:
        square = t * t
        if square > series._LAST_RATIO:
            continue
        scanned = next(k for k in range(1, len(ratios)) if ratios[k] >= square)
        assert k_min(t).k_min == scanned, t
        checked += 1
    assert checked >= 6000, checked


def test_threads_growing_one_table_build_the_serial_table(monkeypatch):
    # four threads ask for different rows of an empty gauss table at once:
    # it grows to exactly the largest index, row for row the serial build
    indices = (37, 80, 121, 150)
    monkeypatch.setitem(series._ROWS, "gauss", [None])
    start = threading.Barrier(len(indices))

    def grow(j):
        start.wait()
        series._row("gauss", j)

    threads = [threading.Thread(target=grow, args=(j,)) for j in indices]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    grown = series._ROWS["gauss"]
    monkeypatch.setitem(series._ROWS, "gauss", [None])
    series._row("gauss", max(indices))
    serial = series._ROWS["gauss"]
    assert len(grown) == len(serial) == max(indices) + 1
    assert [repr(row) for row in grown] == [repr(row) for row in serial]
