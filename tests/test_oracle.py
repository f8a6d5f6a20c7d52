"""Arbitrary-precision oracle: self-verified references for every evaluator."""
from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest

from gammatheta import ConsistencyError, DomainError, ResourceLimitError
from gammatheta.bernoulli import periodic_bernoulli
from gammatheta.bounds import BoundKind, rigorous_bound
from gammatheta.oracle import (
    MAX_DIGITS,
    ConjectureSample,
    RemainderWitness,
    clear_caches,
    conjecture_grid,
    conjecture_scan,
    oracle_lngamma,
    oracle_remainder,
    oracle_theta,
    oracle_theta_remainder,
    required_table2_digits,
    sharpness_ratio,
    stats,
    theta_series_value,
)
from gammatheta import oracle
from gammatheta.oracle import (
    _FIRST_NODE_DOWN,
    _gl_nodes_01,
    _lngamma_cache,
    _panel_log_error,
    _panel_sum,
    _partial_sum_mp,
    _PeriodicKernel,
    _ratios,
    _shift_logs,
    _tail_series,
)
from gammatheta.series import term_coefficient


# -- lngamma -----------------------------------------------------------------


@pytest.mark.parametrize(
    "z", [2.0 + 0j, 0.5 + 0j, 0.5 + 3j, 10j, -2.5 + 1j, 1e-2 + 5j, 40.0 - 7j]
)
def test_lngamma_matches_the_external_reference(z):
    got = oracle_lngamma(z, 40)
    with mp.workdps(60):
        want = mp.loggamma(mp.mpc(z))
        assert abs(got - want) <= abs(want) * mp.mpf(10) ** (-38) + mp.mpf(10) ** (-38)


def test_lngamma_of_one_is_zero_to_full_precision():
    got = oracle_lngamma(1.0 + 0j, 40)
    assert abs(got) < mp.mpf(10) ** (-38)


@pytest.mark.parametrize(("zero", "offset"), [(1, 0.0), (2, 0.0), (1, 2**-60), (2, -(2**-70))])
@pytest.mark.parametrize("digits", [15, 40])
def test_lngamma_next_to_its_zeros_keeps_its_significant_digits(zero, offset, digits):
    # The truncation target is absolute, so next to lngamma(1) = lngamma(2)
    # = 0 the evaluation repeats with the digits it falls short by.
    with mp.workprec(200):
        z = mp.mpc(zero) + offset
    got = oracle_lngamma(z, digits)
    if offset == 0.0:
        assert got == 0
        return
    with mp.workdps(80):
        want = mp.loggamma(z)
        assert abs(got - want) <= abs(want) * mp.mpf(10) ** (1 - digits)


def test_lngamma_refuses_a_zero_it_cannot_resolve_within_the_digit_cap():
    with mp.workprec(1800):
        z = mp.mpc(1) + mp.mpf(2) ** -1700  # lngamma(z) is about 1e-512
    with pytest.raises(ResourceLimitError, match="next to a zero"):
        oracle_lngamma(z, 520)


def test_lngamma_doubles_its_digits_where_a_pass_resolves_nothing(monkeypatch):
    # lngamma(1 + 2^-3400) is about -1.8e-1024: every pass short of that
    # returns noise within its own target, so the working digits at least
    # double until the cap refuses, and the refusal shows z apart from 1.
    passes = []
    shifted_tail = oracle._shifted_tail

    def spy(*args):
        passes.append(mp.mp.dps)
        return shifted_tail(*args)

    monkeypatch.setattr(oracle, "_shifted_tail", spy)
    clear_caches()
    with mp.workprec(3500):
        z = mp.mpc(1) + mp.mpf(2) ** -3400
    with pytest.raises(ResourceLimitError, match=r"z=\(1\.0{1000,}[1-9]"):
        oracle_lngamma(z, 20)
    assert len(passes) <= 7, passes
    passes.clear()
    with mp.workprec(400):
        z = mp.mpc(2) - mp.mpf(2) ** -300
    got = oracle_lngamma(z, 20)
    assert len(passes) <= 5, passes
    with mp.workdps(150):
        want = mp.loggamma(z)
        assert abs(got - want) <= abs(want) * mp.mpf(10) ** -19


def test_lngamma_takes_an_mpc_argument_exactly():
    # Next to the pole at -2, lngamma'(z) is about 1e25: rounding z to the
    # 45 working digits of a 30-digit call would move the value by 1e-21.
    with mp.workdps(50):
        z = mp.mpc(-2 - mp.mpf("1e-25"), mp.mpf("1e-400"))
    with mp.workdps(45):
        rounded = +z
    assert rounded != z
    for arg in (z, rounded):
        got = oracle_lngamma(arg, 30)
        with mp.workdps(60):
            want = mp.loggamma(arg)
            assert abs(got - want) <= abs(want) * mp.mpf(10) ** -29


def test_lngamma_refuses_a_shift_past_the_cap_before_forming_it(monkeypatch):
    def unreachable(*args):
        raise AssertionError("formed a shift past the cap")

    monkeypatch.setattr(oracle, "_shift_logs", unreachable)
    monkeypatch.setattr(oracle, "_tail_series", unreachable)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=r"n >= 100007\.2, beyond the cap 1000"):
        oracle_lngamma(-99999.5 + 1j, 15)
    assert time.perf_counter() - start < 0.05


def test_lngamma_rejects_the_cut():
    with pytest.raises(DomainError):
        oracle_lngamma(-3.0 + 0j, 30)
    with pytest.raises(DomainError):
        oracle_lngamma(0.0 + 0j, 30)


def test_digit_requests_are_validated():
    with pytest.raises(DomainError):
        oracle_lngamma(2.0 + 0j, 0)
    with pytest.raises(DomainError):
        oracle_lngamma(2.0 + 0j, MAX_DIGITS + 1)
    with pytest.raises(DomainError):
        oracle_lngamma(2.0 + 0j, 12.5)


def test_values_are_consistent_across_precision_requests():
    a = oracle_lngamma(0.5 + 7j, 25)
    b = oracle_lngamma(0.5 + 7j, 45)
    assert abs(a - b) <= abs(b) * mp.mpf(10) ** (-23)


# -- remainders --------------------------------------------------------------


def test_remainder_witness_reports_agreeing_methods():
    witness = oracle_remainder(0.5 + 12j, 7, "stirling", 30, details=True)
    assert isinstance(witness, RemainderWitness)
    assert witness.difference <= witness.tolerance
    assert witness.digits_a >= 30
    assert witness.tail_terms > 0
    assert witness.value == witness.method_a


def test_remainder_equals_reference_minus_partial_sum():
    # Independent reassembly at high precision: R_k+1 = lngamma - main - sum.
    z, k = 1.0 + 6j, 5
    got = oracle_remainder(z, k, "stirling", 35)
    with mp.workdps(80):
        zz = mp.mpc(z)
        main = (zz - mp.mpf(1) / 2) * mp.log(zz) - zz + mp.log(2 * mp.pi) / 2
        total = mp.loggamma(zz) - main
        for j in range(1, k + 1):
            b = mp.bernoulli(2 * j)
            total -= b / (2 * j * (2 * j - 1) * zz ** (2 * j - 1))
        assert abs(got - total) <= abs(total) * mp.mpf(10) ** (-30)


@pytest.mark.parametrize("z", [1e-5j, 1e-8j])
def test_remainder_next_to_the_origin_equals_reference_minus_partial_sum(z):
    # The pole of (z+u)^(-2k) at u = -z sits next to the first panel; the
    # mesh grades towards it instead of refusing.
    k, digits = 1, 15
    got = oracle_remainder(z, k, "stirling", digits)
    with mp.workdps(digits + 25):
        zz = mp.mpc(z)
        main = (zz - mp.mpf(1) / 2) * mp.log(zz) - zz + mp.log(2 * mp.pi) / 2
        total = mp.loggamma(zz) - main - mp.bernoulli(2) / (2 * zz)
        assert abs(got - total) <= abs(total) * mp.mpf(10) ** (-(digits - 2))


def test_a_mesh_past_its_depth_cap_is_a_resource_limit():
    # At 1e-20i the mesh would need panels narrower than 2^-60 next to the
    # pole: refused up front, with no node evaluated.
    clear_caches()
    with pytest.raises(ResourceLimitError, match="quadrature mesh"):
        oracle_remainder(1e-20j, 1, "stirling", 15)
    assert stats()["node_evaluations"] == 0


def _exact_panel(k, family, z, c2, level, index, digits):
    """1/(2k) times the panel's integral of B_2k({u + offset}) (z+u)^(-2k),
    by tanh-sinh quadrature at ``digits``."""
    offset = mp.mpf(0) if family == "stirling" else mp.mpf(1) / 2
    with mp.workdps(digits):
        zz = mp.mpc(z)
        left = mp.mpf(c2 - 1) / 2 + mp.mpf(index) / 2**level
        right = left + mp.mpf(1) / 2**level
        kernel = lambda u: periodic_bernoulli(2 * k, u + offset)  # noqa: E731
        # mp.quad stops on an absolute error estimate, so the integrand is
        # scaled to order one
        scale = abs(mp.bernoulli(2 * k)) * abs(zz + left) ** (-2 * k)
        value = mp.quad(lambda u: kernel(u) * (zz + u) ** (-2 * k) / scale, [left, right])
        return value * scale / (2 * k)


_PANELS = (
    # nested panels [0, 2^-L] next to the pole at -0.1i
    [(2, "stirling", 0.1j, 1, level, 0) for level in range(6)]
    + [
        (9, "stirling", 0.5 + 10j, 1, 0, 0),
        (9, "stirling", 0.5 + 10j, 25, 0, 0),
        (16, "gauss", 5 + 0j, 0, 1, 1),
        (16, "gauss", 5 + 0j, 2, 0, 0),
        (16, "gauss", 5 + 0j, 2, 2, 3),
        (383, "stirling", 127.32j, 1, 0, 0),
    ]
)


@pytest.mark.parametrize(("k", "family", "z", "c2", "level", "index"), _PANELS)
def test_panel_error_bound_holds(k, family, z, c2, level, index):
    # The 20-node panel sum at 45 digits differs from the panel's integral,
    # taken by mp.quad at twice the digits, by no more than its proven bound.
    digits = 20 + 25
    with mp.workdps(digits):
        prec = mp.mp.prec + 20
        kernel = _PeriodicKernel(k, prec)
        got = _panel_sum(kernel, mp.mpc(z), 2 * k, c2, level, index)
    bound = _panel_log_error(z.real, z.imag, k, prec, c2, level, index)
    want = _exact_panel(k, family, z, c2, level, index, 2 * digits)
    with mp.workdps(2 * digits):
        error = abs(got - want)
        assert error == 0 or mp.log(error) <= bound, (mp.nstr(error, 5), math.exp(bound))


@pytest.mark.parametrize("k", [3, 16])
@pytest.mark.parametrize("family", ["stirling", "gauss"])
def test_kernel_table_maps_each_panel_parity_to_the_periodic_polynomial(k, family):
    # A panel is the family's unit piece [c - 1/2, c + 1/2] (c a half-integer
    # for stirling, an integer for gauss) bisected L times, at place i; its
    # node n sits at u = c - 1/2 + (i + x_n)/2^L, and the table read for
    # (L, i) must hold B_2k({u + offset}) there, within 4 units of 2**exp,
    # in every piece.
    offset = mp.mpf(0) if family == "stirling" else mp.mpf(1) / 2
    centres = (3.5, 6.5) if family == "stirling" else (3, 7)
    with mp.workdps(40):
        kernel = _PeriodicKernel(k, mp.mp.prec + 20)
    tol = 4 * mp.mpf(2) ** kernel.exp
    with mp.workprec(kernel.prec + 40):
        nodes = [mp.mpf((x, -kernel.prec)) for x in kernel.nodes]
        for level in range(4):
            for index in range(1 << level):
                values = kernel.values(level, index)
                assert len(values) == 20
                for c in centres:
                    for n, x in enumerate(nodes):
                        u = mp.mpf(c) - mp.mpf(1) / 2 + (index + x) / 2**level
                        want = periodic_bernoulli(2 * k, u + offset)
                        got = mp.mpf(values[n]) * mp.mpf(2) ** kernel.exp
                        assert abs(got - want) <= tol, (c, level, index, n)


def test_gauss_legendre_rule_is_floored_from_one_cached_precision():
    # 150 and 200 bits share the 256-bit rule, so the coarser one is the
    # finer one shifted down.
    nodes, weights = _gl_nodes_01(200)
    assert _gl_nodes_01(150) == ([x >> 50 for x in nodes], [w >> 50 for w in weights])
    one = 1 << 200
    assert one - 20 <= sum(weights) <= one
    for a, b in zip(nodes, reversed(nodes)):
        assert abs(a + b - one) <= 1  # symmetric about 1/2
    # the panel error bound takes the pole's distance at the least node
    assert nodes[0] > _FIRST_NODE_DOWN * one
    # every node is a root of P_20(2x - 1) to about the working precision
    with mp.workprec(200):
        for x in nodes:
            assert abs(mp.legendre(20, 2 * mp.mpf((x, -200)) - 1)) < mp.mpf(2) ** -180


def test_kernel_evaluations_do_not_grow_with_the_shift():
    # Far from the pole every unit piece passes its error bound unbisected:
    # eleven panels, each bound evaluated once and summed once, and one
    # kernel table for the place (0, 0) serves all of them.
    clear_caches()
    witness = oracle_remainder(0.5 + 10j, 9, "stirling", 14, details=True)
    counts = stats()
    assert witness.shift == 11
    assert counts["remainders"] == 1
    assert counts["panels"] == counts["levels"] == witness.shift
    assert counts["node_evaluations"] == 20 * witness.shift
    assert counts["kernel_evaluations"] == 20
    assert counts["deepest_level"] == 0
    # More digits need a longer [0, U] and finer panels; still one table per
    # (level, index) place, at most 20 (2^(L+1) - 1) polynomial values for
    # deepest level L, whatever the number of pieces.
    clear_caches()
    witness = oracle_remainder(0.5 + 10j, 9, "stirling", 60, details=True)
    counts = stats()
    assert witness.shift > 13
    deepest = counts["deepest_level"]
    assert 0 < counts["kernel_evaluations"] <= 20 * (2 ** (deepest + 1) - 1)
    assert counts["node_evaluations"] == 20 * counts["panels"]
    assert counts["node_evaluations"] > counts["kernel_evaluations"]
    assert counts["levels"] >= counts["panels"] > witness.shift
    clear_caches()
    assert set(stats().values()) == {0}


def test_stats_count_lngamma_cache_hits():
    clear_caches()
    oracle_lngamma(0.5 + 9j, 30)
    oracle_lngamma(0.5 + 9j, 30)
    assert stats()["lngamma_cache_hits"] == 1


def test_a_miss_at_capacity_empties_the_lngamma_cache_in_place():
    # A tracer that holds the dict reads a hit as "length unchanged", so a
    # miss must change the length even when the cache is full.
    clear_caches()
    _lngamma_cache.update({(n, n, 0): None for n in range(oracle._LNGAMMA_CACHE_SIZE)})
    value = oracle_lngamma(0.5 + 9j, 30)
    assert len(_lngamma_cache) == 1
    assert oracle_lngamma(0.5 + 9j, 30) == value
    assert stats()["lngamma_cache_hits"] == 1
    clear_caches()


def test_stats_count_series_terms():
    clear_caches()
    with mp.workdps(40):
        w = mp.mpc(20, 3)
        _, last = _tail_series(w, 3, "stirling", mp.mpf(10) ** -46)
        assert stats()["series_terms"] == last - 3
        _partial_sum_mp("gauss", 5, w)
    assert stats()["series_terms"] == last + 2
    clear_caches()
    assert stats()["series_terms"] == 0


def test_remainder_validates_its_arguments():
    with pytest.raises(DomainError):
        oracle_remainder(-1.0 + 2j, 3, "stirling", 20)
    with pytest.raises(DomainError):
        oracle_remainder(2.0 + 0j, 0, "stirling", 20)
    with pytest.raises(DomainError):
        oracle_remainder(2.0 + 0j, True, "stirling", 20)
    with pytest.raises(DomainError):
        theta_series_value(10.0, True, 20)
    with pytest.raises(DomainError):
        oracle_remainder(2.0 + 0j, 3, "laplace", 20)


_INF, _NAN = math.inf, math.nan


@pytest.mark.parametrize(
    ("call", "args"),
    [
        (oracle_remainder, (complex(1.0, _INF), 3, "stirling", 15)),
        (oracle_remainder, (complex(1.0, _NAN), 3, "stirling", 15)),
        (oracle_remainder, (complex(_INF, 1.0), 3, "gauss", 15)),
        (oracle_theta_remainder, (3, _INF, 15)),
        (sharpness_ratio, (3, _INF)),
        (oracle_lngamma, (complex(_NAN, 1.0), 15)),
        (oracle_lngamma, (complex(1.0, _INF), 15)),
        (oracle_lngamma, (complex(_INF, 0.0), 15)),
    ],
    ids=[
        "remainder-inf-im", "remainder-nan-im", "remainder-inf-re", "theta-remainder-inf",
        "sharpness-inf", "lngamma-nan-re", "lngamma-inf-im", "lngamma-inf-re",
    ],
)
def test_non_finite_arguments_are_domain_errors(call, args):
    # refused up front, not as a conversion error
    with pytest.raises(DomainError, match="finite"):
        call(*args)


def test_half_family_remainder_real_part_is_k_independent_on_the_axis():
    # Re R-hat_k(it) = -log(1 + e^(-2 pi t)) / 2 for every k.
    for t in (0.5, 2.0):
        with mp.workdps(40):
            want = -mp.log(1 + mp.exp(-2 * mp.pi * mp.mpf(t))) / 2
        values = [
            oracle_remainder(complex(0.0, t), k, "gauss", 30).real for k in (1, 3, 7)
        ]
        for value in values:
            assert abs(value - want) <= abs(want) * mp.mpf(10) ** (-25)


def test_remainder_magnitude_respects_the_proven_bound():
    for k, z in ((2, 0.5 + 4j), (6, 9.0 + 0j)):
        truth = abs(oracle_remainder(z, k, "stirling", 20))
        assert truth <= rigorous_bound(BoundKind.GAMMA_RATIO, k, z, "stirling").value


# -- theta -------------------------------------------------------------------


def test_theta_matches_the_external_reference():
    for t in (0.3, 1.0, 17.5):
        got = oracle_theta(t, 40)
        with mp.workdps(60):
            z = mp.mpc(mp.mpf(1) / 4, mp.mpf(t) / 2)
            want = mp.im(mp.loggamma(z)) - mp.mpf(t) / 2 * mp.log(mp.pi)
            assert abs(got - want) <= (abs(want) + 1) * mp.mpf(10) ** (-38)


def test_theta_requires_positive_finite_t():
    with pytest.raises(DomainError):
        oracle_theta(0.0, 30)
    with pytest.raises(DomainError):
        oracle_theta(math.inf, 30)


def test_theta_remainder_closes_the_truncation_identity():
    # theta(t) = truncated-with-arctan value + remainder, to full precision.
    t, k = 2.5, 4
    series = theta_series_value(t, k, 35, variant="arctan")
    remainder = oracle_theta_remainder(k, t, 35)
    want = oracle_theta(t, 35)
    with mp.workdps(45):
        assert abs(series + remainder - want) <= mp.mpf(10) ** (-30)


def test_theta_series_value_variants_differ_by_documented_corrections():
    t, k = 3.0, 6
    standard = theta_series_value(t, k, 35, variant="standard")
    arctan = theta_series_value(t, k, 35, variant="arctan")
    empirical = theta_series_value(t, k, 35, variant="empirical")
    with mp.workdps(40):
        assert abs(arctan - standard - mp.atan(mp.exp(-mp.pi * mp.mpf(t))) / 2) < mp.mpf(
            10
        ) ** (-30)
    assert empirical != arctan
    with pytest.raises(DomainError):
        theta_series_value(t, k, 35, variant="secant")


def test_table2_digit_requirement_grows_linearly():
    assert required_table2_digits(10) == math.ceil(20 * math.pi / math.log(10)) + 30
    assert required_table2_digits(100) > required_table2_digits(10)


# -- sharpness and conjecture scans -------------------------------------------


def test_sharpness_ratio_validates_and_stays_under_the_general_bound():
    with pytest.raises(DomainError):
        sharpness_ratio(3, 0.0)
    k, y = 3, 5.0
    ratio = sharpness_ratio(k, y, 20)
    bound = rigorous_bound(BoundKind.GAMMA_RATIO, k, complex(0.0, y), "stirling")
    assert 0.0 < ratio <= bound.normalized


def test_remainder_on_the_imaginary_axis_splits_into_closed_form_and_series_parts():
    # At k=3, y=1 the real part is about |T_3(i)| = 1/1260, so leaving it in
    # would change the ratio at its first digit: Re R is the closed-form
    # -(1/2) log(1 - e^{-2 pi y}) for every k, and the sharpness ratio keeps
    # only Im R.
    k, y, digits = 3, 1.0, 30
    value = oracle_remainder(complex(0.0, y), k, "stirling", digits)
    with mp.workdps(digits + 10):
        yy = mp.mpf(y)
        want_real = -mp.log1p(-mp.exp(-2 * mp.pi * yy)) / 2
        assert abs(value.real - want_real) <= abs(want_real) * mp.mpf(10) ** (-(digits - 2))
        term_abs = mp.mpf(1) / 1260
        assert 0.5 < abs(value.real) / term_abs < 2
        want_ratio = abs(value.imag) / term_abs
    ratio = sharpness_ratio(k, y, digits)
    assert abs(ratio - want_ratio) <= want_ratio * mp.mpf(10) ** (-(digits - 2))
    assert ratio < abs(value) / term_abs


def test_conjecture_grid_shape_and_axis_exactness():
    points = list(conjecture_grid(6))
    assert len(points) == 6 * 4 * 3
    assert points[0] == (1, 1.0, 0.0)
    ks = {k for k, _, _ in points}
    assert ks == set(range(1, 7))


def test_conjecture_scan_reports_no_violation_on_a_small_prefix():
    samples = list(conjecture_scan(4, digits=12))
    assert len(samples) == 4 * 4 * 3
    for sample in samples:
        assert isinstance(sample, ConjectureSample)
        assert sample.status == ("proven" if sample.k >= 34 else "conjectured")
        assert sample.ratio <= 1.0
        assert not sample.violation


# -- caches ------------------------------------------------------------------


def test_clear_caches_keeps_results_stable():
    before = oracle_lngamma(0.5 + 9j, 30)
    clear_caches()
    after = oracle_lngamma(0.5 + 9j, 30)
    assert before == after


# -- the fixed-point series tail and the shift logs ---------------------------


def _reference_tail(w, k, family, tau):
    """The mpmath loop the fixed-point tail replaced: (sum, last index) of
    T_j(w), j > k, up to the first j with safety sqrt(pi j) |T_j| < tau."""
    safety = 2 if family == "gauss" else 1
    inv_w2 = 1 / (w * w)
    p = w ** -(2 * k + 1)
    acc = 0
    for j in range(k + 1, oracle._SERIES_INDEX_CAP + 1):
        c = term_coefficient(family, j)
        term = mp.mpf(c.numerator) / c.denominator * p
        acc += term
        if safety * mp.sqrt(mp.pi * j) * abs(term) < tau:
            return acc, j
        p *= inv_w2
    return None


def _exact_tail_sum(w, k, family, last):
    with mp.workprec(2 * mp.mp.prec):
        w = mp.mpc(w)
        inv_w2 = 1 / (w * w)
        p = w ** -(2 * k + 1)
        acc = 0
        for j in range(k + 1, last + 1):
            c = term_coefficient(family, j)
            acc += mp.mpf(c.numerator) / c.denominator * p
            p *= inv_w2
        return acc


def _check_tail(w, k, family, tau):
    want = _reference_tail(w, k, family, tau)
    if want is None:
        with pytest.raises(ConsistencyError, match="index cap"):
            _tail_series(w, k, family, tau)
        return
    got = _tail_series(w, k, family, tau)
    assert got[1] == want[1], (w, k, family, got, want)
    error = abs(got[0] - _exact_tail_sum(w, k, family, got[1]))
    assert error <= tau / 100, (w, k, family, mp.nstr(error / tau, 3))


@pytest.mark.parametrize("k", [0, 1, 5, 20, 90])
@pytest.mark.parametrize("family", ["stirling", "gauss"])
def test_fixed_point_tail_matches_the_mpmath_loop(family, k):
    # Same stop index as the mpmath loop, and the sum within tau/100 of the
    # exact partial sum at twice the precision, from 12 to 300 digits; the
    # short radius is where the terms rise before the bound certifies.
    for digits in (12, 40, 120, 300):
        radius = max((digits + 8) * 0.37 + 2, 1.3 * (k + 2) / math.pi)
        with mp.workdps(digits + 15):
            tau = mp.mpf(10) ** -(digits + 6)
            points = [(radius, 0.1), (1.4 * radius, 0.8), (radius, 1.5)]
            if digits <= 40:
                points.append((radius / 3, 1.0))
            for r, phi in points:
                _check_tail(mp.mpc(r * math.cos(phi), r * math.sin(phi)), k, family, tau)


#: The thirteen remainder cells of the oracle-remainder benchmark workload.
_GRID = tuple(
    complex(re, im) for re in (0.0, 0.5, 1.0, 5.0) for im in (0.1, 1.0, 10.0, 40.0)
) + (1.0 + 0j, 5.0 + 0j, 25.0 + 0j)
_CELLS = tuple(
    (_GRID[(j * 11) % len(_GRID)], 1 + (j * 7) % 20, ("stirling", "gauss")[j % 2], 12 + (j * 5) % 9)
    for j in range(13)
)


def test_fixed_point_tail_matches_the_mpmath_loop_on_the_remainder_cells(monkeypatch):
    # Both methods' tails, with the w, k, tau and precision each cell uses.
    calls = []

    def spy(w, k, family, tau):
        calls.append((w, k, family, tau, mp.mp.prec))
        return _tail_series(w, k, family, tau)

    monkeypatch.setattr(oracle, "_tail_series", spy)
    clear_caches()
    for z, k, family, digits in _CELLS:
        oracle_remainder(z, k, family, digits)
    monkeypatch.undo()
    assert len(calls) == 2 * len(_CELLS)
    for w, k, family, tau, prec in calls:
        with mp.workprec(prec):
            _check_tail(w, k, family, tau)


@pytest.mark.parametrize("family", ["stirling", "gauss"])
def test_fixed_point_tail_stops_on_the_exact_bound(family):
    # tau a hair under the bound at the stop index j: the tail goes on to
    # j + 1; a hair over: it stops at j.  This fails if the stop test loses
    # the carried rounding error or rounds pi down.
    for k, w in ((0, mp.mpc(40, 5)), (3, mp.mpc(25, 30)), (12, mp.mpc(3, 45))):
        for digits in (15, 30, 50, 80):
            with mp.workdps(digits):
                _, j = _reference_tail(w, k, family, mp.mpf(10) ** -(digits - 3))
                with mp.workprec(2 * mp.mp.prec):
                    c = term_coefficient(family, j)
                    exact = (2 if family == "gauss" else 1) * mp.sqrt(mp.pi * j) * abs(
                        mp.mpf(c.numerator) / c.denominator / mp.mpc(w) ** (2 * j - 1)
                    )
                below = exact * (1 - mp.mpf(2) ** (8 - mp.mp.prec))
                assert _tail_series(w, k, family, +below)[1] == j + 1, (k, digits)
                above = exact * (1 + mp.mpf(2) ** -20)
                assert _tail_series(w, k, family, +above)[1] == j, (k, digits)


def test_term_ratios_grow_with_the_index():
    # The tail's accuracy bound takes |rho_j x| <= 1 up to a stop, which
    # holds because |c_j / c_(j-1)| grows with j: checked on the floored
    # ratios up to the cap (each within one unit, so a gap of two or more
    # is a strict rise).
    for family in ("stirling", "gauss"):
        table = _ratios(family, 128, oracle._SERIES_INDEX_CAP)
        magnitudes = [abs(r) for r in table[2:oracle._SERIES_INDEX_CAP + 1]]
        assert all(b - a >= 2 for a, b in zip(magnitudes, magnitudes[1:]))
        c2, c1 = term_coefficient(family, 2), term_coefficient(family, 1)
        assert table[2] == math.floor(c2 / c1 * 2**128)


@pytest.mark.parametrize(
    ("z", "n", "dps"),
    [
        (0.5 + 1000j, 400, 40),
        (1e-8j, 60, 40),
        (-1e-8j, 60, 40),
        (0.25 + 0.5j, 300, 60),
        (-7.5 - 0.25j, 40, 30),
        # the shifts the two sharpness spots of c05 take
        (100j / math.pi, 47, 155),
        (400j / math.pi, 83, 415),
    ],
)
def test_shift_logs_take_the_branch_of_the_sum_of_logs(z, n, dps):
    with mp.workdps(dps):
        zz = mp.mpc(z)
        got = _shift_logs(zz, n)
        with mp.workdps(dps + 10):
            want = mp.fsum(mp.log(zz + i) for i in range(n))
        assert abs(got - want) <= mp.mpf(10) ** (5 - dps) * (1 + abs(want))


def test_shift_logs_keep_a_factor_next_to_the_cut_on_its_side():
    # z + 2 = -1e-25 + 1e-400j: its real part rounds to -2.0 and its
    # imaginary part to 0.0 as doubles, so only a factor formed before the
    # float conversion keeps the argument near pi (the sum is 3 pi, not pi).
    with mp.workdps(45):
        zz = mp.mpc(-2 - mp.mpf("1e-25"), mp.mpf("1e-400"))
        for n in (3, 5, 30):
            got = _shift_logs(zz, n)
            with mp.workdps(55):
                want = mp.fsum(mp.log(zz + i) for i in range(n))
            assert abs(got - want) <= mp.mpf(10) ** -40 * abs(want), n
    value = oracle_lngamma(zz, 30)
    with mp.workdps(60):
        want = mp.loggamma(zz)
        assert abs(want.imag + 3 * mp.pi) < 1e-20
        assert abs(value - want) <= mp.mpf(10) ** -28 * abs(want)


def test_remainders_next_to_the_origin_take_each_shift_once(monkeypatch):
    # c06's remainders at small |z| with k > pi |z + 1|, where a shift that
    # ignores k leaves a tail whose terms rise: each shift is taken once, and
    # its tail stops below the index cap.
    shifts, lasts = [], []
    shifted_tail, tail_series = oracle._shifted_tail, oracle._tail_series

    def spy_shift(*args):
        shifts.append(args)
        return shifted_tail(*args)

    def spy_tail(*args):
        out = tail_series(*args)
        lasts.append(out[1])
        return out

    monkeypatch.setattr(oracle, "_shifted_tail", spy_shift)
    monkeypatch.setattr(oracle, "_tail_series", spy_tail)
    clear_caches()
    for z in (0.1j, 0.5 + 0.1j):
        for k in range(11, 21):
            for family in ("stirling", "gauss"):
                for digits in (12, 21, 30):
                    oracle_remainder(z, k, family, digits)
    assert len(lasts) == len(shifts) >= 2 * 10 * 2 * 3
    assert max(lasts) < oracle._SERIES_INDEX_CAP


def _shift_cases(family):
    """A seeded sample over k and 12 to 500 digits, with z left of the axis
    (k = 0, as in oracle_lngamma) or next to it (method (b))."""
    rng = random.Random(f"shift-rule:{family}")
    for k in (0, 1, 5, 20, 90, 400):
        for digits in (12, 45, 160, 500):
            if k == 0:
                z = complex(-60 * rng.random(), rng.uniform(-3, 3))
            else:
                z = complex(rng.random() ** 3, rng.choice((-1, 1)) * 10 ** rng.uniform(-2, 2))
            yield k, digits, z


@pytest.mark.parametrize("family", ["stirling", "gauss"])
def test_the_shift_rule_certifies_at_once_and_near_the_least_shift(family):
    # Each shift is taken once, from the proven tail bound, and its tail
    # stops below the index cap; below it by two or more, the tail would
    # not certify.
    for k, digits, z in _shift_cases(family):
        if k == 0:  # oracle_lngamma's target and precision
            dps, least = digits + 15, 0
            log_tau = -(digits + 6)
        else:  # method (b)'s
            dps, least = digits + 25, 1
            with mp.workdps(30):
                log_tau = oracle._log10_term(family, k, mp.mpc(z)) - digits - 9
        with mp.workdps(dps):
            zz, tau = mp.mpc(z), mp.mpf(10) ** log_tau
            n, _, last = oracle._shifted_tail(zz, k, family, tau, least)
            assert last < oracle._SERIES_INDEX_CAP, (k, digits, z)
            m = n - 1
            while m >= max(least, 0.5 - z.real):
                try:
                    _tail_series(zz + m, k, family, tau)
                except ConsistencyError:
                    break
                m -= 1
            assert n - (m + 1) <= 1, (k, digits, z, n, m + 1)


def test_a_tail_past_the_index_cap_is_refused_at_its_first_coefficient():
    # k at the cap leaves no index to scan: the first term's coefficient
    # refuses, not a shift of infinite size.
    with mp.workdps(30):
        with pytest.raises(ResourceLimitError, match="Bernoulli index 2002"):
            oracle._shifted_tail(
                mp.mpc(300, 5), oracle._SERIES_INDEX_CAP, "stirling", mp.mpf(10) ** -40, 1
            )
