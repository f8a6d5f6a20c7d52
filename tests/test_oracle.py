"""Arbitrary-precision oracle: self-verified references for every evaluator."""
from __future__ import annotations

import math
import random
import sys
import threading
from fractions import Fraction

import mpmath as mp
import pytest

from gammatheta import ConsistencyError, DomainError, ResourceLimitError
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
    periodic_bernoulli,
    required_table2_digits,
    sharpness_ratio,
    stats,
    theta_series_value,
)
from gammatheta import oracle
from gammatheta.oracle import (
    _FIRST_NODE_DOWN,
    _GUARD_BITS,
    _gl_nodes_01,
    _lngamma_cache,
    _log_kernel_majorant,
    _panel_log_error,
    _panel_sum,
    _partial_sum_mp,
    _PeriodicKernel,
    _ratios,
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
    # lngamma(1) = lngamma(2) = 0 exactly; next to them the value is small
    # and still holds its digits relative to itself.
    with mp.workprec(200):
        z = mp.mpc(zero) + offset
    got = oracle_lngamma(z, digits)
    if offset == 0.0:
        assert got == 0
        return
    with mp.workdps(80):
        want = mp.loggamma(z)
        assert abs(got - want) <= abs(want) * mp.mpf(10) ** (1 - digits)


def test_lngamma_keeps_its_significant_digits_in_each_part():
    # lngamma(1 + i 2^-150) is about -4.04e-91 - 4.0e-46 i: the real part
    # lies far below |value|, and each part holds the digits asked for.
    with mp.workprec(200):
        z = mp.mpc(1, mp.mpf(2) ** -150)
    got = oracle_lngamma(z, 40)
    with mp.workdps(300):
        want = mp.loggamma(z)
        for g, w in ((got.real, want.real), (got.imag, want.imag)):
            assert abs(g - w) <= abs(w) * mp.mpf(10) ** -39
    # lngamma(3 + i 2^-4000) is about 0.693 + 7.0e-1205 i: the imaginary
    # part keeps its digits, 1200 orders of magnitude below the real part
    with mp.workprec(4100):
        z = mp.mpc(3, mp.mpf(2) ** -4000)
    got = oracle_lngamma(z, 20)
    with mp.workdps(60):
        want = mp.loggamma(z)
        for g, w in ((got.real, want.real), (got.imag, want.imag)):
            assert abs(g - w) <= abs(w) * mp.mpf(10) ** -19


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


def _hard_lngamma_points():
    """Next to a zero in the imaginary and in the real direction, far left of
    the axis, and high on the critical line."""
    with mp.workprec(3500):
        return (
            mp.mpc(1, mp.mpf(2) ** -150),
            mp.mpc(1) + mp.mpf(2) ** -3400,
            mp.mpc(-99999.5, 1),
            mp.mpc(0.5, 30),
        )


@pytest.mark.parametrize("digits", [20, 40])
def test_lngamma_matches_mpmath_at_thirty_more_digits_in_each_part(digits):
    for z in _hard_lngamma_points():
        got = oracle_lngamma(z, digits)
        with mp.workdps(digits + 30):
            want = mp.loggamma(z)
            for g, w in ((got.real, want.real), (got.imag, want.imag)):
                assert abs(g - w) <= abs(w) * mp.mpf(10) ** -digits, (z, digits)


def test_lngamma_refuses_where_its_two_precisions_disagree(monkeypatch):
    # A fault that moves the imaginary part at the lower working precision
    # only, by 10^-(digits-1) of that part, is a consistency error.
    loggamma = mp.loggamma

    def faulty(z):
        value = loggamma(z)
        if mp.mp.dps < 40:
            value += mp.mpc(0, value.imag / 10**19)
        return value

    monkeypatch.setattr(mp, "loggamma", faulty)
    clear_caches()
    with pytest.raises(ConsistencyError, match="disagree at 20 digits"):
        oracle_lngamma(0.5 + 7j, 20)
    got = oracle_lngamma(0.5 + 7j, 30)  # 45 and 60 digits: no fault
    with mp.workdps(60):
        want = loggamma(mp.mpc(0.5, 7))
    with mp.workdps(30):
        assert got == +want


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
    # a bool is not a digit count
    with pytest.raises(DomainError, match="digits must be an integer"):
        oracle_theta(1.0, True)


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
    by tanh-sinh quadrature at ``digits``, with mpmath's own Bernoulli
    polynomial as the kernel."""
    offset = mp.mpf(0) if family == "stirling" else mp.mpf(1) / 2
    with mp.workdps(digits):
        zz = mp.mpc(z)
        left = mp.mpf(c2 - 1) / 2 + mp.mpf(index) / 2**level
        right = left + mp.mpf(1) / 2**level
        kernel = lambda u: mp.bernpoly(2 * k, mp.frac(u + offset))  # noqa: E731
        # mp.quad stops on an absolute error estimate, so the integrand is
        # scaled to order one
        scale = abs(mp.bernoulli(2 * k)) * abs(zz + left) ** (-2 * k)
        value = mp.quad(lambda u: kernel(u) * (zz + u) ** (-2 * k) / scale, [left, right])
        return value * scale / (2 * k)


_PANELS = (
    # (k, family, z, c2, level, index, working digits)
    # nested panels [0, 2^-L] next to the pole at -0.1i
    [(2, "stirling", 0.1j, 1, level, 0, 45) for level in range(6)]
    + [
        (9, "stirling", 0.5 + 10j, 1, 0, 0, 45),
        (9, "stirling", 0.5 + 10j, 25, 0, 0, 45),
        (16, "gauss", 5 + 0j, 0, 1, 1, 45),
        (16, "gauss", 5 + 0j, 2, 0, 0, 45),
        (16, "gauss", 5 + 0j, 2, 2, 3, 45),
        (383, "stirling", 127.32j, 1, 0, 0, 45),
    ]
    # the table-2 theta rows' panels next to the pole, levels 0-3 of the
    # first piece, where the polynomial majorant decides the mesh: method (b)
    # of oracle_theta_remainder(k, t, ceil(2 pi t / ln 10) + 30) works at 25
    # digits above the remainder's 38 (t = 0.75) and 40 (t = 1.5)
    + [(2, "gauss", 0.75j, 0, 1 + d, 1 << d, 63) for d in range(4)]
    + [(5, "gauss", 1.5j, 0, 1 + d, 1 << d, 65) for d in range(4)]
)


@pytest.mark.parametrize(
    ("k", "family", "z", "c2", "level", "index", "digits"),
    _PANELS,
    # a panel's id leaves out its working digits
    ids=["-".join(map(str, panel[:6])) for panel in _PANELS],
)
def test_panel_error_bound_holds(k, family, z, c2, level, index, digits):
    # The 20-node panel sum at the working digits differs from the panel's
    # integral, taken by mp.quad at twice the digits, by no more than its
    # proven bound.
    with mp.workdps(digits):
        prec = mp.mp.prec + 20
        kernel = _PeriodicKernel(k, prec)
        got = _panel_sum(kernel, mp.mpc(z), 2 * k, c2, level, index)
    bound = _panel_log_error(z.real, z.imag, k, prec, c2, level, index)
    want = _exact_panel(k, family, z, c2, level, index, 2 * digits)
    with mp.workdps(2 * digits):
        error = abs(got - want)
        assert error == 0 or mp.log(error) <= bound, (mp.nstr(error, 5), math.exp(bound))


@pytest.mark.parametrize("k", range(1, 41))
def test_kernel_majorant_bounds_the_polynomial_on_its_disc(k):
    # For |y| <= Y the rounded-up majorant is at least |B_2k(1/2 + y)|; at
    # y = +-iY the polynomial majorant is |B_2k(1/2 + y)| itself, so a
    # majorant that drops any coefficient fails there.
    rng = random.Random(f"kernel-majorant:{k}")
    with mp.workdps(50):
        for big_y in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
            ys = [1j * big_y, -1j * big_y, complex(big_y), complex(-big_y)]
            for _ in range(8):
                r = big_y * math.sqrt(rng.random())
                phase = 2 * math.pi * rng.random()
                ys.append(complex(r * math.cos(phase), r * math.sin(phase)))
            bound = mp.exp(_log_kernel_majorant(k, big_y))
            for y in ys:
                value = abs(mp.bernpoly(2 * k, mp.mpf(1) / 2 + mp.mpc(y)))
                assert value <= bound, (big_y, y, mp.nstr(value, 20), mp.nstr(bound, 20))


def _reference_panel_sum(kernel, zz, two_k, c2, level, index):
    """The node loop of _panel_sum as first written, kept to pin its
    integers."""
    prec = kernel.prec
    frac = prec + level + _GUARD_BITS
    start = (
        oracle._fixed(zz.real, frac) + ((c2 - 1) << (frac - 1)) + (index << (frac - level))
    )
    zi = oracle._fixed(zz.imag, frac)
    bits = bin(two_k)[3:]  # after the leading one, most significant first
    acc_re = acc_im = 0
    scale = None
    for node, t in zip(kernel.nodes, kernel.weighted(level, index)):
        a = start + (node << _GUARD_BITS)
        b = zi
        s = max(a.bit_length(), b.bit_length()) - prec
        a >>= s
        b >>= s
        e = s - frac
        ra, rb, re_ = a, b, e
        for bit in bits:
            ra, rb = ra * ra - rb * rb, (ra * rb) << 1
            re_ <<= 1
            if bit == "1":
                ra, rb = ra * a - rb * b, ra * b + rb * a
                re_ += e
            s = max(ra.bit_length(), rb.bit_length()) - prec
            ra >>= s
            rb >>= s
            re_ += s
        d = ra * ra + rb * rb
        ia = ((ra << (2 * prec)) // d) * t
        ib = ((-rb << (2 * prec)) // d) * t
        ie = -re_ - 2 * prec
        if scale is None:
            scale = ie + 2
        acc_re += ia >> (scale - ie)
        acc_im += ib >> (scale - ie)
    exp = scale + kernel.exp - level
    return mp.mpc(mp.mpf((acc_re, exp)), mp.mpf((acc_im, exp))) / two_k


@pytest.mark.parametrize("family", ["stirling", "gauss"])
def test_panel_sum_matches_the_reference_loop_bit_for_bit(family):
    rng = random.Random(f"panel-sum:{family}")
    parity = 1 if family == "stirling" else 0
    for _ in range(120):
        k = rng.randint(1, 20)
        digits = rng.randint(12, 40)
        level = rng.randint(0, 4)
        index = rng.randrange(1 << level)
        c2 = 2 * rng.randint(1, 10) - parity
        z = complex(3 * rng.random(), rng.choice((0.01, 1.0, 20.0)) * (2 * rng.random() - 1))
        with mp.workdps(digits + 25):
            kernel = _PeriodicKernel(k, mp.mp.prec + 20)
        # a working precision that keeps every bit of the sums, so that the
        # results compare the loop's integers, not their rounding
        with mp.workprec(4 * kernel.prec):
            zz = mp.mpc(z)
            got = _panel_sum(kernel, zz, 2 * k, c2, level, index)
            want = _reference_panel_sum(kernel, zz, 2 * k, c2, level, index)
        assert got._mpc_ == want._mpc_, (k, digits, z, c2, level, index)


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
    # method (b)'s tail terms; the partial sums of the first k terms are not
    # series work of the oracle's own
    clear_caches()
    with mp.workdps(40):
        w = mp.mpc(20, 3)
        _, last = _tail_series(w, 3, "stirling", mp.mpf(10) ** -46)
        assert stats()["series_terms"] == last - 3
        _partial_sum_mp("gauss", 5, w)
    assert stats()["series_terms"] == last - 3
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


def _mpmath_remainder(z, k, family, digits):
    """The remainder after k terms from mpmath.loggamma and mpmath's own
    Bernoulli numbers, at ``digits``."""
    with mp.workdps(digits):
        zz = mp.mpc(z)
        half_log_2pi = mp.log(2 * mp.pi) / 2
        if family == "stirling":
            total = mp.loggamma(zz) - ((zz - 0.5) * mp.log(zz) - zz + half_log_2pi)
        else:
            total = mp.loggamma(zz + 0.5) - (zz * mp.log(zz) - zz + half_log_2pi)
        for j in range(1, k + 1):
            b = mp.bernoulli(2 * j)
            if family == "gauss":  # B_2j(1/2) = -(1 - 2^(1-2j)) B_2j
                b *= mp.mpf(2) ** (1 - 2 * j) - 1
            total -= b / (2 * j * (2 * j - 1) * zz ** (2 * j - 1))
        return total


def _planted_cells():
    """27 seeded points in the right half-plane with k <= 12, the first
    pinned at 0.5 + 0.5i, k = 2."""
    rng = random.Random("planted-coefficient")
    cells = [(0.5 + 0.5j, 2)]
    while len(cells) < 27:
        r, phi = 10 ** rng.uniform(-0.5, 1.5), rng.uniform(-math.pi / 2, math.pi / 2)
        cells.append((complex(r * math.cos(phi), r * math.sin(phi)), rng.randint(1, 12)))
    return cells


def test_a_planted_coefficient_error_is_refused_or_leaves_the_value_right(monkeypatch):
    # c_(k+4) of the cell's family, 1e-6 off in fresh coefficient caches
    # (the module's own stay clean), moves method (b)'s tail: each call must
    # either refuse or return the remainder to the 20 digits it claims.
    digits, refused = 20, 0
    for z, k in _planted_cells():
        for family in ("stirling", "gauss"):

            def planted(kind, j, cell=(family, k + 4)):
                c = term_coefficient(kind, j)
                return c * (1 + Fraction(1, 10**6)) if (kind, j) == cell else c

            monkeypatch.setattr(oracle, "term_coefficient", planted)
            for cache in ("_coeff_cache", "_ratio_cache", "_lngamma_cache"):
                monkeypatch.setattr(oracle, cache, {})
            try:
                got = oracle_remainder(z, k, family, digits)
            except ConsistencyError:
                refused += 1
                continue
            want = _mpmath_remainder(z, k, family, 50)
            with mp.workdps(50):
                assert abs(got - want) <= abs(want) * mp.mpf(10) ** -digits, (z, k, family)
    assert refused > 0


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


def test_theta_matches_mpmath_siegeltheta_from_0_01_to_300():
    # mpmath's theta comes from the defining form Im lngamma(1/4 + it/2) -
    # (t/2) log pi (or its own asymptotic series), not the oracle's
    # Im lngamma(1/2 + it) form.
    for i in range(31):
        t = 0.01 * 30000 ** (i / 30)
        got = oracle_theta(t, 30)
        with mp.workdps(40):
            want = mp.siegeltheta(mp.mpf(t))
            assert abs(got - want) <= mp.mpf(10) ** -28 * (abs(want) + 1), t


@pytest.mark.parametrize("digits", [15, 30])
def test_theta_keeps_its_relative_digits_at_small_t(digits):
    # theta(t) is O(t) as t -> 0, while -pi/8 + arctan(e^(-pi t))/2 cancels
    # from O(1): without extra working digits the value lost all of its
    # digits at t = 1e-300.
    for t in (1e-300, 1e-100, 1e-20, 1e-8, 1e-3):
        got = oracle_theta(t, digits)
        with mp.workdps(digits + 20):
            want = mp.siegeltheta(mp.mpf(t))
            assert abs(got - want) <= mp.mpf(10) ** (1 - digits) * abs(want), t


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


def test_concurrent_calls_at_two_precisions_equal_serial_calls():
    # mpmath's working precision is global to the process: unless every call
    # holds the package's one mpmath lock, threads at 15 and 60 digits change
    # each other's precision mid-call, and calls fail or return other values.
    # A short switch interval makes the threads interleave finely.
    points = [complex(40.0 + i / 16, 1.0 + i / 32) for i in range(40)]
    digits = (15, 60, 15, 60)
    results, errors = {}, []

    def work(thread):
        for n, z in enumerate(points):
            try:
                results[thread, n] = oracle_remainder(z, 5, "stirling", digits[thread])
            except Exception as exc:  # every failure is asserted on below
                errors.append(exc)

    clear_caches()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == 160
    clear_caches()
    for (thread, n), value in sorted(results.items()):
        assert value == oracle_remainder(points[n], 5, "stirling", digits[thread]), (thread, n)


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
    # Method (b)'s tail, one per cell, with the w, k, tau and precision each
    # cell uses.
    calls = []

    def spy(w, k, family, tau):
        calls.append((w, k, family, tau, mp.mp.prec))
        return _tail_series(w, k, family, tau)

    monkeypatch.setattr(oracle, "_tail_series", spy)
    clear_caches()
    for z, k, family, digits in _CELLS:
        oracle_remainder(z, k, family, digits)
    monkeypatch.undo()
    assert len(calls) == len(_CELLS)
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


def test_term_ratios_grow_in_place_to_exactly_the_index_asked():
    clear_caches()
    table = _ratios("gauss", 64, 10)
    assert len(table) == 11
    assert _ratios("gauss", 64, 7) is table and len(table) == 11
    assert _ratios("gauss", 64, 12) is table and len(table) == 13
    c12, c11 = term_coefficient("gauss", 12), term_coefficient("gauss", 11)
    assert table[12] == math.floor(c12 / c11 * 2**64)


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
        # shifts as long as the two sharpness spots of c05 take
        (100j / math.pi, 47, 155),
        (400j / math.pi, 83, 415),
    ],
)
def test_shift_logs_take_the_branch_of_the_sum_of_logs(z, n, dps):
    # lngamma(z + n) - lngamma(z) is the sum of the principal logs of the
    # shift's factors z, ..., z + n - 1, branch and all.
    with mp.workdps(dps):
        zz = mp.mpc(z)
        got = oracle_lngamma(zz + n, dps) - oracle_lngamma(zz, dps)
        with mp.workdps(dps + 10):
            want = mp.fsum(mp.log(zz + i) for i in range(n))
        assert abs(got - want) <= mp.mpf(10) ** (5 - dps) * (1 + abs(want))


def test_shift_logs_keep_a_factor_next_to_the_cut_on_its_side():
    # z + 2 = -1e-25 + 1e-400j: its real part rounds to -2.0 and its
    # imaginary part to 0.0 as doubles, yet the factor lies above the cut,
    # so lngamma(z) is about -3 pi i off the real axis, and the shift's logs
    # carry arguments near pi.
    with mp.workdps(45):
        zz = mp.mpc(-2 - mp.mpf("1e-25"), mp.mpf("1e-400"))
    value = oracle_lngamma(zz, 30)
    with mp.workdps(55):
        for n in (3, 5, 30):
            got = oracle_lngamma(zz + n, 30) - value
            want = mp.fsum(mp.log(zz + i) for i in range(n))
            assert abs(got - want) <= mp.mpf(10) ** -28 * abs(want), n
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
    (k = 0, the whole series) or next to it (method (b))."""
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
        if k == 0:  # an absolute target, at 15 guard digits
            dps = digits + 15
            log_tau = -(digits + 6)
        else:  # method (b)'s target and precision
            dps = digits + 25
            with mp.workdps(30):
                log_tau = oracle._log10_term(family, k, mp.mpc(z)) - digits - 9
        with mp.workdps(dps):
            zz, tau = mp.mpc(z), mp.mpf(10) ** log_tau
            n, _, last = oracle._shifted_tail(zz, k, family, tau)
            assert last < oracle._SERIES_INDEX_CAP, (k, digits, z)
            m = n - 1
            while m >= max(1, 0.5 - z.real):
                try:
                    _tail_series(zz + m, k, family, tau)
                except ConsistencyError:
                    break
                m -= 1
            assert n - (m + 1) <= 1, (k, digits, z, n, m + 1)


def test_a_shift_past_the_cap_is_refused_before_the_tail_is_formed(monkeypatch):
    # k = 999 at |z| = 1e8: the one index left, 1000, certifies only at
    # |z + n| of about 3e8, so the shift is refused before any term is formed.
    def unreachable(*args):
        raise AssertionError("formed a tail past the shift cap")

    monkeypatch.setattr(oracle, "_tail_series", unreachable)
    with mp.workdps(30):
        log_tau = oracle._log10_term("gauss", 999, mp.mpc(0, 1e8)) - 20 - 9
    with mp.workdps(45):
        with pytest.raises(ResourceLimitError, match="beyond the cap 1000"):
            oracle._shifted_tail(mp.mpc(0, 1e8), 999, "gauss", mp.mpf(10) ** log_tau)


@pytest.mark.parametrize("family", ["stirling", "gauss"])
def test_a_tail_after_the_last_admitted_term_count_stops_at_the_cap(family):
    # k = 999 leaves one index, 1000, the cap: the shift makes its term
    # certify, so the tail stops there without a ratio past the cap.
    clear_caches()
    witness = oracle_remainder(100, 999, family, 20, details=True)
    assert witness.tail_terms == oracle._SERIES_INDEX_CAP  # the last index summed
    assert witness.difference <= witness.tolerance
    sizes = [len(table) for table in oracle._ratio_cache.values()]
    assert max(sizes) <= oracle._SERIES_INDEX_CAP + 1


def test_a_tail_past_the_index_cap_is_refused_at_its_first_coefficient():
    # k at the cap leaves no index to scan: the first term's coefficient
    # refuses, not a shift of infinite size.
    with mp.workdps(30):
        with pytest.raises(ResourceLimitError, match="Bernoulli index 2002"):
            oracle._shifted_tail(
                mp.mpc(300, 5), oracle._SERIES_INDEX_CAP, "stirling", mp.mpf(10) ** -40
            )
