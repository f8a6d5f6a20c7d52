"""Slow, arbitrary-precision, self-verifying reference computations.

Everything the fast certified path is tested against lives here:

* ``oracle_lngamma`` — ``mpmath.loggamma`` at two working precisions, whose
  results must agree in each part to the digits asked for.
* ``oracle_remainder`` — the series remainder after k terms by two
  independent methods: (a) subtracting main terms and partial sum from
  ``oracle_lngamma``, and (b) the exact periodic-kernel integral
  ``-(1/2k) \\int_0^U B_2k({u + offset}) (z+u)^{-2k} du`` plus the series
  continuation of the remainder at ``z + U`` (an integer shift leaves the
  periodic kernel invariant).  The two must agree within 10^-digits of
  their scale, or a consistency error is raised.  Method (b)'s quadrature
  error is proven, not estimated: its 20-point Gauss-Legendre panels are
  chosen before any node is evaluated, by bisecting the kernel's
  polynomial pieces until each panel's bound on a Bernstein ellipse, plus
  its rounding, is within its share of the budget; each panel is then
  summed once.  Its series continuation runs in fixed-point integers with
  a carried rounding bound, so its stop test is a comparison of integers.
* ``oracle_theta`` / ``oracle_theta_remainder`` — the theta function from
  the half-shifted log-Gamma on the critical line.
* ``table2_row`` — the four normalized-error columns of the reference table.
* ``sharpness_ratio`` / ``conjecture_scan`` — the numeric spot checks and
  the grid scan behind the scan command.  On the imaginary axis every series
  term is purely imaginary, so the sharpness ratio uses the imaginary part
  of the remainder: its real part is exactly ``-(1/2) log(1 - e^{-2 pi y})``
  (from ``|Gamma(iy)|^2 = pi / (y sinh(pi y))``), an exponentially small
  term that no truncation of the series reaches.
* ``periodic_bernoulli`` / ``half_shift_identity_check`` — ``B_j({u})``, the
  kernel of the remainder integrals, correctly rounded, and its self-test.
* ``c_k_string`` — the quadratic-bound constant c_k rounded up at a given
  number of decimals, from its 50-digit print (``_compute_ck``); the fast
  path reads only the doubles ``bounds.c_k`` stores.

All working precisions carry explicit guard digits; results are rounded to
the requested digit count on return.  Caches are keyed by exact binary
values and precision, so repeated calls are deterministic.  This is the
package's one module that imports mpmath.  mpmath's working precision is
global to the process, so every public entry holds ``_MPMATH_LOCK`` for the
whole call (``conjecture_scan`` for each sample): calls are serialized.
"""
from __future__ import annotations

import functools
import math
import threading
from collections import namedtuple
from fractions import Fraction

import mpmath as mp
from mpmath import mpc, mpf
from mpmath.libmp import from_int, from_man_exp, mpf_div, round_nearest

from . import bernoulli as _bernoulli_mod
from .bernoulli import bernoulli_number, shared_table
from .bounds import CK_MAX_K, _check_ck_index, eta_fraction
from .errors import ConsistencyError, DomainError, ResourceLimitError
from .series import EMPIRICAL_CONSTANT, _coefficient, k_min, term_coefficient

__all__ = [
    "MAX_DIGITS",
    "oracle_lngamma",
    "oracle_remainder",
    "RemainderWitness",
    "oracle_theta",
    "oracle_theta_remainder",
    "theta_series_value",
    "NormalizedErrorRow",
    "required_table2_digits",
    "table2_row",
    "sharpness_ratio",
    "SHARPNESS_SPOTS",
    "ConjectureSample",
    "conjecture_grid",
    "conjecture_scan",
    "periodic_bernoulli",
    "half_shift_identity_check",
    "c_k_string",
    "clear_caches",
    "stats",
]

#: Hard cap on requested digits for any oracle entry point.
MAX_DIGITS = 1000

_LN10 = math.log(10.0)
_SERIES_INDEX_CAP = _bernoulli_mod.MAX_INDEX // 2

#: The two published sharpness spot checks: (k, y) with the imaginary part of
#: the remainder after k terms compared against the k-th term on the
#: imaginary axis (the real part, -(1/2) log(1 - e^{-2 pi y}), is not a
#: series remainder and is left out).
SHARPNESS_SPOTS = ((90, 100.0 / math.pi), (383, 400.0 / math.pi))

#: Gauss-Legendre nodes per quadrature panel.
_NODES = 20
#: Deepest bisection of a unit piece, and most error bounds, one mesh may use.
_MAX_LEVEL = 60
_MAX_CHECKS = 1 << 16
#: Fraction bits beyond ``prec + level`` in the node loop and the kernel.
_GUARD_BITS = 10
#: Just below the least node of the 20-point rule on [0, 1], 0.0034357004...
_FIRST_NODE_DOWN = 0.0034357
_LOG_2 = math.log(2.0)
_LOG_2PI = math.log(2.0 * math.pi)
_LOG_GAUSS = math.log(64.0 / 15.0)
#: A relative upward margin for doubles, and the one added to the log of a
#: panel's error bound, far above the roundings of its terms (each under
#: 1e-11 absolute, every term being below 1e5 in magnitude).
_UP = 1.0 + 2.0**-40
_LOG_SLACK = 1e-6
#: pi rounded up at 60 fraction bits (pi = 0x3.243F6A8885A308D3...).
_PI_UP = 0x3243F6A8885A308E
#: Fraction bits of a series tail's terms below those of its target.
_TAIL_GUARD = 40
#: Largest shift z -> z+n method (b) takes; beyond it a call is refused.
_MAX_SHIFT = 1000
#: Entries ``_lngamma_cache`` holds before a miss empties it.
_LNGAMMA_CACHE_SIZE = 1024

_coeff_cache: dict[tuple[str, int, int], mpf] = {}
_ratio_cache: dict[tuple[str, int], list[int]] = {}
_nodes_cache: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
_lngamma_cache: dict[tuple[object, object, int], mpc] = {}

#: The one lock held wherever the package sets mpmath's working precision.
_MPMATH_LOCK = threading.RLock()

#: Work counters since the last :func:`clear_caches`; ``deepest_level`` is a
#: maximum, the others are totals.
_stats = dict.fromkeys(
    (
        "remainders",
        "panels",
        "levels",
        "node_evaluations",
        "kernel_evaluations",
        "lngamma_cache_hits",
        "deepest_level",
        "series_terms",
    ),
    0,
)


def _serialized(entry):
    """``entry`` holding ``_MPMATH_LOCK`` for the whole call."""
    @functools.wraps(entry)
    def call(*args, **kwargs):
        with _MPMATH_LOCK:
            return entry(*args, **kwargs)
    return call


@_serialized
def clear_caches() -> None:
    """Drop all precision-keyed caches (primarily for tests) and reset the
    work counters."""
    _coeff_cache.clear()
    _ratio_cache.clear()
    _nodes_cache.clear()
    _lngamma_cache.clear()
    for key in _stats:
        _stats[key] = 0


@_serialized
def stats() -> dict[str, int]:
    """Snapshot of the oracle's work counters.

    ``remainders``: :func:`oracle_remainder` calls.  For method (b)'s
    quadrature: ``panels`` (panels summed), ``levels`` (panel error bounds
    evaluated while choosing the panels: one per panel summed and one per
    bisection), ``node_evaluations`` (quadrature nodes at which (z+u)^(-2k)
    was formed, 20 per panel), ``kernel_evaluations`` (values of the
    Bernoulli polynomial computed) and ``deepest_level`` (the deepest
    bisection of a unit piece any panel reached; the gauss family's end
    pieces are halves, level 1).  ``lngamma_cache_hits``:
    :func:`oracle_lngamma` calls answered from its cache.  ``series_terms``:
    terms summed by method (b)'s series tail.
    """
    return dict(_stats)


def _check_digits(digits: int) -> int:
    if type(digits) is not int:
        raise DomainError(f"digits must be an integer, got {digits!r}")
    if digits < 1 or digits > MAX_DIGITS:
        raise DomainError(f"digits must lie in [1, {MAX_DIGITS}], got {digits}")
    return digits


def _height(t, what: str, name: str = "t") -> float:
    """float(t), refused unless finite and > 0."""
    tf = float(t)
    if not 0.0 < tf < math.inf:
        raise DomainError(f"{what} requires finite {name} > 0, got {t!r}")
    return tf


def _coeff(kind: str, j: int) -> mpf:
    """Series coefficient as an mpf at the current working precision."""
    key = (kind, j, mp.mp.prec)
    hit = _coeff_cache.get(key)
    if hit is None:
        fr = term_coefficient(kind, j)
        hit = _coeff_cache[key] = mpf(fr.numerator) / fr.denominator
    return hit


def _ratios(family: str, bits: int, upto: int) -> list[int]:
    """``floor(c_j / c_(j-1) * 2**bits)`` at index j, for 2 <= j <= upto
    (entries 0 and 1 are unused), c_j the family's coefficients.

    Kept per (family, bits) with ``bits`` a power of two, so a caller
    floors to fewer bits by a shift; a table grows in place to exactly
    ``upto``.
    """
    table = _ratio_cache.setdefault((family, bits), [0, 0])
    if len(table) <= upto:
        coeffs = [term_coefficient(family, j) for j in range(len(table) - 1, upto + 1)]
        table.extend(
            (c.numerator * prev.denominator << bits) // (c.denominator * prev.numerator)
            for prev, c in zip(coeffs, coeffs[1:])
        )
    return table


# ---------------------------------------------------------------------------
# Gauss-Legendre nodes (Newton iteration on the Legendre recurrence)
# ---------------------------------------------------------------------------


def _legendre_pair(n: int, x: mpf) -> tuple[mpf, mpf]:
    """(P_n(x), P_n'(x)) by the three-term recurrence."""
    p0, p1 = mpf(1), x
    for m in range(2, n + 1):
        p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
    dp = n * (x * p1 - p0) / (x * x - 1)
    return p1, dp


def _gl_nodes_01(prec: int) -> tuple[list[int], list[int]]:
    """20 Gauss-Legendre nodes and weights on [0, 1] as ``floor(x * 2**prec)``.

    The rule is computed once per power of two ``bits >= max(prec, 128)``,
    kept as ``bits``-bit fixed-point integers, and floored to ``prec`` bits
    by a shift.
    """
    n = 20
    bits = max(128, 1 << (prec - 1).bit_length())
    hit = _nodes_cache.get(bits)
    if hit is None:
        pairs: list[tuple[mpf, mpf]] = []
        with mp.workprec(bits + 40):
            target = mpf(2) ** (-mp.mp.prec + 12)
            for i in range(1, n // 2 + 1):
                x = mpf(math.cos(math.pi * (i - 0.25) / (n + 0.5)))
                for _ in range(200):
                    p, dp = _legendre_pair(n, x)
                    dx = p / dp
                    x -= dx
                    if abs(dx) < target:
                        break
                else:
                    raise ConsistencyError("Legendre root iteration failed to converge")
                p, dp = _legendre_pair(n, x)
                x -= p / dp
                _, dp = _legendre_pair(n, x)
                w = 2 / ((1 - x * x) * dp * dp)
                pairs.append((x, w))
            # n is even, so the roots come in symmetric nonzero pairs; fold
            # them onto [0, 1] in ascending order.
            folded = [((1 - x) / 2, w / 2) for x, w in sorted(pairs, reverse=True)]
            folded += [((1 + x) / 2, w / 2) for x, w in sorted(pairs)]
        hit = _nodes_cache[bits] = (
            tuple(_fixed(x, bits) for x, _ in folded),
            tuple(_fixed(w, bits) for _, w in folded),
        )
    shift = bits - prec
    return [x >> shift for x in hit[0]], [w >> shift for w in hit[1]]


# ---------------------------------------------------------------------------
# lngamma
# ---------------------------------------------------------------------------


@_serialized
def oracle_lngamma(z, digits: int = 30) -> mpc:
    """lngamma(z) to ``digits`` rounded digits, principal branch, off the
    cut (-inf, 0].

    z is taken exactly (an mpmath argument keeps all its bits).  The value
    is ``mpmath.loggamma`` at ``digits + 15`` and at ``digits + 30`` working
    digits; each part of the two must agree within 10^-digits of the second
    one's, or a ``ConsistencyError`` is raised.  The second is returned,
    rounded.  lngamma(1) and lngamma(2) are exact zeros.  Results are cached
    by exact z and digits; a miss with ``_LNGAMMA_CACHE_SIZE`` entries held
    empties the cache first.
    """
    digits = _check_digits(digits)
    if isinstance(z, mpf):
        z = mp.make_mpc((z._mpf_, mpf(0)._mpf_))
    with mp.workdps(digits + 15):
        zz = z if isinstance(z, mpc) else mpc(z)
    if not mp.isfinite(zz):
        raise DomainError(f"lngamma oracle needs a finite argument, got z={zz}")
    if zz.imag == 0 and zz.real <= 0:
        raise DomainError(f"lngamma oracle is undefined on the cut (-inf, 0]: z={zz}")
    key = (zz.real._mpf_, zz.imag._mpf_, digits)
    hit = _lngamma_cache.get(key)
    if hit is not None:
        _stats["lngamma_cache_hits"] += 1
        return hit
    result = mpc(0)  # lngamma(1) = lngamma(2) = 0 exactly
    if zz != 1 and zz != 2:
        with mp.workdps(digits + 15):
            first = mp.loggamma(zz)
        with mp.workdps(digits + 30):
            result = mp.loggamma(zz)
            tolerance = mpf(10) ** -digits
            for a, b in ((first.real, result.real), (first.imag, result.imag)):
                if abs(a - b) > tolerance * abs(b):
                    raise ConsistencyError(
                        f"lngamma oracle at z={zz}: mpmath.loggamma at {digits + 15} "
                        f"and {digits + 30} digits disagree at {digits} digits"
                    )
    with mp.workdps(digits):
        out = +result
    # emptied in place, not evicted: a miss always changes its length
    if len(_lngamma_cache) >= _LNGAMMA_CACHE_SIZE:
        _lngamma_cache.clear()
    _lngamma_cache[key] = out
    return out


# ---------------------------------------------------------------------------
# remainders, two independent ways
# ---------------------------------------------------------------------------


class RemainderWitness(namedtuple(
    "RemainderWitness",
    "value method_a method_b digits_a shift tail_terms tail_value "
    "difference tolerance",
)):
    """Both methods' values and the agreement evidence for one remainder:
    ``value``, ``method_a``, ``method_b`` and ``tail_value`` (mpc);
    ``digits_a``, ``shift`` and ``tail_terms`` (int); ``difference`` and
    ``tolerance`` (mpf)."""

    __slots__ = ()


def _require_remainder_args(z, k: int, family: str) -> complex:
    if family not in ("stirling", "gauss"):
        raise DomainError(
            f"remainder family must be stirling or gauss, got {family!r}"
        )
    if type(k) is not int or k < 1:
        raise DomainError(f"term count must be a positive integer, got {k!r}")
    zc = complex(z)
    if not (0.0 <= zc.real < math.inf and math.isfinite(zc.imag)) or zc == 0:
        raise DomainError(
            "remainder oracle needs a finite z in the closed right half-plane "
            f"minus 0, got {zc}"
        )
    return zc


def _log10_term(family: str, k: int, zz) -> float:
    """log10 |T_k(z)| from the coefficient at working precision."""
    return float((mp.log(abs(_coeff(family, k))) - (2 * k - 1) * mp.log(abs(zz))) / _LN10)


def _term(family: str, k: int, x) -> mpf:
    """c_k / x^(2k-1) at the working precision: T_k(x) for a real x, and
    |T_k(z)| up to sign for x = |z|."""
    return _coeff(family, k) / x ** (2 * k - 1)


def _partial_sum_mp(family: str, k: int, zz):
    """Sum of the first k terms of the family's series at zz (an mpf for a
    real zz)."""
    inv_w = 1 / zz
    inv_w2 = inv_w * inv_w
    p = inv_w
    acc = 0
    for j in range(1, k + 1):
        acc += _coeff(family, j) * p
        p *= inv_w2
    return acc


def _main_terms_mp(family: str, zz: mpc) -> mpc:
    logw = mp.log(zz)
    half_log_2pi = mp.log(2 * mp.pi) / 2
    if family == "stirling":
        return (zz - mpf("0.5")) * logw - zz + half_log_2pi
    return zz * logw - zz + half_log_2pi


def _tail_series(w: mpc, k: int, family: str, tau: mpf):
    """Sum T_j(w) for j > k until the proven tail bound drops below tau.

    Returns (sum, last_index); reaching the Bernoulli cap is a
    ``ConsistencyError``.  The stop is the first j with safety sqrt(pi j)
    |T_j| < tau (Theorem: the remainder after T_j is below that bound); the
    factor safety = 2 for the half-shifted family dominates every eta_j,
    keeping the certificate valid there too.

    Only the set-up uses mpmath, at the working precision p: x = 1/w^2
    within 2^(4-p) relative and T_(k+1) within (2k+6) 2^(2-p) (every mpmath
    operation rounds each part once, and a power once).  The terms then
    follow T_j = T_(j-1) rho_j x, rho_j = c_j / c_(j-1) (:func:`_ratios`),
    on Python integers: T_j and the sum carry F = 40 - mag(tau) fraction
    bits (at least 0), rho_j and x R = F + mag(T_(k+1))^+ + 2 mag(w)^+ + 8,
    and every product is floored.
    The bound e_j on |T~_j - T_j|, in units of 2^-F, is carried with the
    terms.  With n(.) the L1 norm of an integer pair, |x~| <= X the rounded
    up modulus and d the error of x~ (both in units of 2^-R), a step
    Q = T rho, then T' = Q x, gives

        e_Q = (e (|rho~| + 1) + n(T~)) 2^-R + 3,
        e'  = (e_Q X + (n(Q~) + e_Q) d) 2^-R + 3,

    the +3 covering the ceiling and the floors (under sqrt 2).  The stop
    test compares integers:
    ((|Re T~| + e)^2 + (|Im T~| + e)^2) safety^2 j pi_up < floor(tau 2^F)^2,
    with pi_up = ``_PI_UP`` 2^-60 >= pi, so it certifies at least what the
    test on exact values would.  |rho_j| grows with j (for j >= 2, up to
    the cap), so the terms fall, then rise, and a bound falls below tau
    only while they fall: up to the stop |rho_j x| <= 1, so a step adds
    under 7 + 2^(5-p) |T~_j| units to e.  As in an mpmath sum, the
    set-up's rounding at the working precision bounds the accuracy of the
    sum, and the fixed point adds under 7 (j-k)^2 units, below tau 2^-16
    for j <= 1000.
    """
    prec = mp.mp.prec
    inv_w = 1 / w
    x = inv_w * inv_w
    first = _coeff(family, k + 1) * inv_w ** (2 * k + 1)
    frac = max(0, _TAIL_GUARD - mp.mag(tau))
    rbits = frac + max(0, mp.mag(first)) + 2 * max(0, mp.mag(w)) + 8
    t_re, t_im = _fixed(first.real, frac), _fixed(first.imag, frac)
    x_re, x_im = _fixed(x.real, rbits), _fixed(x.imag, rbits)
    x_mod = math.isqrt(x_re * x_re + x_im * x_im)
    x_err = (x_mod >> (prec - 4)) + 3
    x_abs = x_mod + 1
    err = (((abs(t_re) + abs(t_im)) * (2 * k + 6)) >> (prec - 2)) + 3
    tau_fix = _fixed(tau, frac)
    limit = tau_fix**2 << 60
    safety2 = 4 if family == "gauss" else 1
    bits = max(128, 1 << (rbits - 1).bit_length())
    shift = bits - rbits
    ratios = _ratios(family, bits, min(k + 2, _SERIES_INDEX_CAP))
    acc_re, acc_im = t_re, t_im
    j = k + 1
    while True:
        a = abs(t_re) + err
        b = abs(t_im) + err
        if (a * a + b * b) * (safety2 * j * _PI_UP) < limit:
            break
        if j == _SERIES_INDEX_CAP:
            raise ConsistencyError(f"series tail at w={w}, k={k} reached the index cap")
        j += 1
        if j >= len(ratios):
            _ratios(family, bits, j)  # grows ``ratios`` in place
        rho = ratios[j] >> shift
        q_re = (t_re * rho) >> rbits
        q_im = (t_im * rho) >> rbits
        err_q = ((err * (abs(rho) + 1) + abs(t_re) + abs(t_im)) >> rbits) + 3
        t_re = (q_re * x_re - q_im * x_im) >> rbits
        t_im = (q_re * x_im + q_im * x_re) >> rbits
        err = ((err_q * x_abs + (abs(q_re) + abs(q_im) + err_q) * x_err) >> rbits) + 3
        acc_re += t_re
        acc_im += t_im
    _stats["series_terms"] += j - k
    return mpc(mpf((acc_re, -frac)), mpf((acc_im, -frac))), j


def _shifted_tail(zz: mpc, k: int, family: str, tau: mpf):
    """Method (b)'s series tail after k terms at z + n, certified below tau:
    (n, sum, last index).

    n is the least integer >= 1 with Re(z)+n >= 1/2 and |z+n| >= r,
    r = min_j (safety sqrt(pi j) |c_j| / (tau/2))^(1/(2j-1)) in doubles, over
    j = k+1, k+2, ... up to the first rise or the cap (an early stop only
    raises r).  n >= 1 keeps the integral over [0, n] from being empty.  At
    z + n a first j0 passes the stop test of :func:`_tail_series` with a
    factor 2 to spare, and the terms fall up to it, as they do up to any
    first pass.  The carried bound there, 7 j0 units plus the set-up's
    2^(7-p) j0 |T_(k+1)|, is below tau 2^-17 (|T_(k+1)(z+n)| <=
    |rho_(k+1) T_k(z)| against 10^-(digits+9) |T_k(z)| at digits+25), so
    the tail stops by j0.  A shift past ``_MAX_SHIFT`` (k next to the index
    cap at a large |z|) raises ``ResourceLimitError`` before anything is
    formed at z + n.
    """
    log_tau = math.log(tau.man) + (tau.exp - (2 if family == "gauss" else 1)) * _LOG_2
    log_r = math.inf
    for j in range(k + 1, max(k + 1, _SERIES_INDEX_CAP) + 1):  # j = k+1 past the cap raises
        _, m, e = _coefficient(family, j)
        log_a = math.log(abs(m) * math.sqrt(math.pi * j)) + e * _LOG_2 - log_tau
        if log_a / (2 * j - 1) > log_r:
            break
        log_r = log_a / (2 * j - 1)
    radius = math.exp(log_r)
    x, y = float(zz.real), float(zz.imag)
    shift = max(1.0, 0.5 - x, math.sqrt(max(0.0, radius * radius - y * y)) - x)
    if shift > _MAX_SHIFT:
        raise ResourceLimitError(
            f"oracle series at z={zz}, k={k} needs the shift z -> z+n, "
            f"n >= {shift:.1f}, beyond the cap {_MAX_SHIFT}"
        )
    n = math.ceil(shift)
    return n, *_tail_series(zz + n, k, family, tau)


class _PeriodicKernel:
    """B_2k(1/2 + y) at the Gauss-Legendre nodes of a panel, in fixed point.

    Between two breakpoints of the periodic kernel (integers for the plain
    family, half-integers for the shifted one) B_2k({u + offset}) is the one
    polynomial B_2k(1/2 + y) with y = u - c, c the centre of the unit piece
    [c - 1/2, c + 1/2].  A panel is that piece bisected ``level`` times, at
    place ``index``, so the node with unit node x_n has
    y = -1/2 + (index + x_n) / 2^level whatever the piece: one table per
    (level, index) serves that place in every piece.  Values are integers
    scaled by ``2**exp``, with ``exp`` about ``prec`` bits under |B_2k|.  The
    Horner recursion runs in y^2 on integers with floor rounding and
    ``prec + level + _GUARD_BITS`` fraction bits.  For |y| <= 1/2 its partial
    sums stay below cosh(2 pi) |B_2k| (see :func:`_panel_log_error`), under
    2^(prec+10) units, so each step adds under 2.6 units to a quarter of
    the error carried in, and every value is within 4 units of ``2**exp``.
    Tables live as long as the instance: one remainder call.

    The error bounds that choose the panels majorize B_2k(1/2 + y) over
    |y| <= Y by the smaller of the polynomial majorant sum_j |q_j| Y^(2j),
    q_j the coefficients here, and the Fourier majorant
    2 (2k)! e^(2 pi Y) / (2 pi)^2k (:func:`_log_kernel_majorant`).  The
    polynomial one is never the larger, and far the smaller from
    Y ~ k / pi on, as on the Bernstein ellipses of the panels next to the
    pole; the Fourier one is taken for k >= 130, whose coefficients leave
    the double range.
    """

    def __init__(self, k: int, prec: int) -> None:
        self.prec = prec
        table = shared_table()
        b = table.number(2 * k)
        # within one of log2 |B_2k|, minus prec
        self.exp = b.numerator.bit_length() - b.denominator.bit_length() - prec
        numerators, den = table.half_numerators(2 * k)
        self.coeffs = [_scaled(a, den, -self.exp) for a in numerators]
        self.nodes, self.weights = _gl_nodes_01(prec)
        self.evaluations = 0
        self._weighted: dict[tuple[int, int], list[int]] = {}

    def values(self, level: int, index: int) -> list[int]:
        """B_2k at the panel's nodes, scaled by 2**exp."""
        frac = self.prec + level + _GUARD_BITS
        # y = -1/2 + (index + x_n) / 2^level, with frac fraction bits
        start = (index << (self.prec + _GUARD_BITS)) - (1 << (frac - 1))
        head, *rest = self.coeffs
        out = []
        for node in self.nodes:
            y = start + (node << _GUARD_BITS)
            y2 = (y * y) >> frac
            acc = head
            for c in rest:
                acc = ((acc * y2) >> frac) + c
            out.append(acc)
        self.evaluations += len(out)
        return out

    def weighted(self, level: int, index: int) -> list[int]:
        """Kernel value times Gauss weight at the panel's nodes, scaled by
        2**exp."""
        key = (level, index)
        table = self._weighted.get(key)
        if table is None:
            prec = self.prec
            values = self.values(level, index)
            table = [(v * w) >> prec for v, w in zip(values, self.weights)]
            self._weighted[key] = table
        return table


def _fixed(x: mpf, frac: int) -> int:
    """floor(x * 2**frac) for a finite mpf x."""
    sign, man, exp, _ = x._mpf_
    shift = exp + frac
    man = man << shift if shift >= 0 else man >> -shift
    return -man if sign else man


def _scaled(a: int, d: int, frac: int) -> int:
    """floor(a / d * 2**frac), exactly, for integers a and d > 0."""
    if frac >= 0:
        return (a << frac) // d
    return a // (d << -frac)


def _panel_sum(
    kernel: _PeriodicKernel, zz: mpc, two_k: int, c2: int, level: int, index: int
) -> mpc:
    """1/(2k) times the 20-node Gauss-Legendre sum of
    B_2k(1/2 + u - c) (z+u)^(-2k) over panel ``index`` at ``level`` of the
    unit piece centred at c = c2/2.

    z+u is formed with ``prec + level + _GUARD_BITS`` fraction bits: every
    node lies above 2^-9 of the panel's width from its left end, and
    Re z >= 0, so |z+u| keeps at least ``prec`` bits.  Each node raises z+u
    to the power 2k by squaring, keeping ``prec`` bits after every multiply,
    inverts once and multiplies by the weighted kernel.  The terms are added
    at one exponent, two above the first node's: |z+u| grows along the
    panel, so a later node's (z+u)^(-2k) is no larger, its normalized
    exponent exceeds the first node's by at most 1, and no shift is
    negative.
    """
    prec = kernel.prec
    prec2 = 2 * prec
    frac = prec + level + _GUARD_BITS
    start = (
        _fixed(zz.real, frac) + ((c2 - 1) << (frac - 1)) + (index << (frac - level))
    )
    zi = _fixed(zz.imag, frac)
    # the exponent's bits after the leading one, most significant first
    bits = [bit == "1" for bit in bin(two_k)[3:]]
    acc_re = acc_im = 0
    scale = None
    for node, t in zip(kernel.nodes, kernel.weighted(level, index)):
        a = start + (node << _GUARD_BITS)
        b = zi
        la, lb = a.bit_length(), b.bit_length()
        s = (la if la > lb else lb) - prec
        a >>= s
        b >>= s
        e = s - frac
        ra, rb, re_ = a, b, e
        for bit in bits:
            ra, rb = (ra + rb) * (ra - rb), (ra * rb) << 1
            re_ <<= 1
            if bit:
                ra, rb = ra * a - rb * b, ra * b + rb * a
                re_ += e
            la, lb = ra.bit_length(), rb.bit_length()
            s = (la if la > lb else lb) - prec
            ra >>= s
            rb >>= s
            re_ += s
        d = ra * ra + rb * rb
        ie = -re_ - prec2
        if scale is None:
            scale = ie + 2
        shift = scale - ie
        acc_re += (((ra << prec2) // d) * t) >> shift
        acc_im += (((-rb << prec2) // d) * t) >> shift
    exp = scale + kernel.exp - level
    return mpc(mpf((acc_re, exp)), mpf((acc_im, exp))) / two_k


@functools.lru_cache(maxsize=None)
def _majorant_coefficients(k: int) -> tuple[float, ...] | None:
    """|q_j|, the coefficients of B_2k(1/2 + y) in y^2 from
    ``half_numerators(2k)``, highest power first, each a double within half
    an ulp; None where one of them leaves the double range (k >= 130)."""
    numerators, den = shared_table().half_numerators(2 * k)
    try:
        return tuple(abs(a) / den for a in numerators)
    except OverflowError:
        return None


def _log_kernel_majorant(k: int, big_y: float) -> float:
    """Natural log of a bound on |B_2k(1/2 + y)| over complex |y| <= big_y,
    the smaller of two majorants.

    The polynomial one, sum_j |q_j| Y^(2j), is |B_2k(1/2 + iY)|, the
    coefficients alternating in sign; it is summed by Horner in doubles and
    rounded upward by ``_UP``, far above its at most 4k + 2 roundings of
    2^-53 relative (coefficients and Y^2 included).  The Fourier
    one, 2 (2k)! e^(2 pi Y) / (2 pi)^2k, follows from
    |B_2j(1/2)| < 2 (2j)! / (2 pi)^2j, which bounds the polynomial one by
    cosh(2 pi Y) times the same constant.  So the polynomial form is never
    the larger: it is at most about half the Fourier form while Y is well
    under k / pi, and far below it from Y ~ k / pi on, where the panels
    next to the pole put Y (k = 2, Y = 2: 18 against 8.8e3).  The Fourier
    form is the one taken where the coefficients leave the double range
    (k >= 130) or the sum overflows; the roundings of its few doubles are
    left to the margin of :func:`_panel_log_error`.
    """
    fourier = (
        _LOG_2 + math.lgamma(2 * k + 1) - 2 * k * _LOG_2PI + 2 * math.pi * big_y
    )
    coeffs = _majorant_coefficients(k)
    if coeffs is None:
        return fourier
    y2 = big_y * big_y
    acc = 0.0
    for c in coeffs:
        acc = acc * y2 + c
    return min(fourier, math.log(acc * _UP))


def _panel_log_error(
    x: float, y: float, k: int, prec: int, c2: int, level: int, index: int
) -> float:
    """Natural log of a proven bound on the error of :func:`_panel_sum` at
    z = x + iy (x >= 0) against 1/(2k) times the panel's exact integral.

    Let hw be the panel's half width, rho_p the parameter of the Bernstein
    ellipse (foci at the panel's ends) through the pole u = -z, and
    1 < rho < rho_p.  On E_rho:

    * |B_2k(1/2 + y)| <= sum_j |q_j| Y^(2j) <= 2 (2k)! e^(2 pi Y) / (2 pi)^2k,
      with q_j the coefficients ``half_numerators`` gives over their
      denominator and Y = |y at the centre| + hw (rho + 1/rho) / 2.  The
      bound taken is the smaller of the two majorants
      (:func:`_log_kernel_majorant`): the polynomial one wherever its
      coefficients fit in doubles (k < 130), which is never the larger and
      is far the smaller next to the pole, where Y is comparable to k / pi;
      the Fourier one beyond;
    * |z + u| >= hw (rho_p - rho)(1 - 1/(rho rho_p)) / 2.

    With M the quotient of the two, the 20-point rule errs by at most
    hw (64/15) M rho^-38 / (rho^2 - 1) (Trefethen, *Approximation Theory and
    Approximation Practice*, Thm 19.3, with n + 1 = 20 points).  Nodes and
    weights floored to ``prec`` bits add hw M 2^(2-prec) (20 + 4 rho /
    (rho - 1)^2): by Cauchy, f moves by at most M / r per unit of u on the
    panel, r = hw (rho - 1)^2 / (2 rho) being the least distance from the
    panel to E_rho (at its ends).  rho is the root in (0, rho_p) of
    pi hw + 2k / (rho_p - rho) = 38 / rho (rho_p capped at e^300), where the
    leading terms of the Fourier form's logarithm balance; any rho in
    (1, rho_p) gives a proven bound.  Rounding adds under
    2 hw B D^-2k 2^-prec (24k + 540 + 2^22), with B the majorant above on
    the real panel and D the pole's distance to the first node: in the
    fixed-point node loop, power by squaring errs by under 20k 2^-prec
    relative, the inversion by 2^(1-prec) and the weighted kernel by 5
    units of its 2**exp per node, 2**exp being under 2^(1-prec) |B_2k| and
    |B_2k| <= 2 |B_2k(1/2)| <= 2 B (20 nodes: 400 B 2^-prec); the
    conversion to an mpc and the division
    by 2k, at the working precision of prec - 20 bits, by 2^(22-prec).  A
    sum of two terms is taken as twice the larger.  Every term is a
    logarithm, so nothing overflows at any k, and the result is raised by a
    margin that covers the roundings of the doubles.
    """
    hw = math.ldexp(1.0, -level - 1)
    left = (c2 - 1) / 2 + index * 2 * hw
    xa = x + left
    xb = xa + 2 * hw
    d1, d2 = math.hypot(xa, y), math.hypot(xb, y)
    # d1 + d2 - 2hw and rho_p - 1 as sums of nonnegative terms (no cancellation)
    s = d1 + xa + y * (y / (d2 + xb))
    log_rho_p = math.log1p((s + math.sqrt(s) * math.sqrt(d1 + d2 + 2 * hw)) / (2 * hw))
    log_rho_p *= 1.0 - 2.0**-40
    two_k = 2 * k
    log_hw = math.log(hw)
    mid = abs(left + hw - c2 / 2)
    floors = (2 - prec) * _LOG_2
    rho_p = math.exp(min(log_rho_p, 300.0))
    b = math.pi * hw * rho_p + two_k + 38
    rho = 76 * rho_p / (b + math.sqrt(b * b - 152 * math.pi * hw * rho_p))
    lr = math.log(rho)
    quadrature = math.inf
    if 1e-6 < lr < min(log_rho_p, 700.0):
        rho = math.exp(lr)
        ratio = math.expm1(lr) * (1 + 1 / rho)  # (rho^2 - 1) / rho
        log_pole = (
            log_hw - _LOG_2 + log_rho_p
            + math.log(math.expm1(lr - log_rho_p) * math.expm1(-lr - log_rho_p))
        )
        big_y = (mid + hw * (rho + 1 / rho) / 2) * _UP
        log_m = _log_kernel_majorant(k, big_y) - two_k * log_pole
        rule = _LOG_GAUSS - 39 * lr - math.log(ratio)
        near = 4 / (math.expm1(lr) * -math.expm1(-lr))  # 4 rho / (rho - 1)^2
        quadrature = log_hw + log_m + max(rule, floors + math.log(20 + near))
    big_b = _log_kernel_majorant(k, (mid + hw) * _UP)
    first = math.hypot(xa + _FIRST_NODE_DOWN * 2 * hw, y) / _UP
    loop = (
        log_hw + _LOG_2 + big_b - two_k * math.log(first) + floors - 2 * _LOG_2
        + math.log(24 * k + 540 + (1 << 22))
    )
    return max(quadrature, loop) + _LOG_2 - math.log(two_k) + _LOG_SLACK


def _mesh(
    z: complex, k: int, family: str, shift: int, prec: int, log_budget: float
) -> tuple[list[tuple[int, int, int]], int]:
    """The panels (c2, level, index) of [0, shift], left to right, and the
    number of error bounds evaluated to choose them.

    The mesh starts from the kernel's polynomial pieces: the unit intervals
    centred at c = c2/2 between its breakpoints, integers for ``stirling``
    and half-integers for ``gauss``, whose first and last pieces are halves
    (level 1).  A panel is bisected while :func:`_panel_log_error` exceeds
    its share of the budget, ``log_budget`` plus the log of its width; no
    node is evaluated.
    """
    if family == "stirling":
        todo = [(2 * n + 1, 0, 0) for n in range(shift)]
    else:
        todo = [(0, 1, 1), *((2 * n, 0, 0) for n in range(1, shift)), (2 * shift, 1, 0)]
    todo.reverse()
    mesh = []
    checks = 0
    while todo:
        c2, level, index = panel = todo.pop()
        checks += 1
        share = log_budget - level * _LOG_2
        if _panel_log_error(z.real, z.imag, k, prec, *panel) <= share:
            mesh.append(panel)
        elif level == _MAX_LEVEL or checks == _MAX_CHECKS:
            raise ResourceLimitError(
                f"remainder oracle's quadrature mesh at z={z}, k={k} needs panels "
                f"finer than 2^-{_MAX_LEVEL} or more than {_MAX_CHECKS} panel bounds"
            )
        else:
            todo += ((c2, level + 1, 2 * index + 1), (c2, level + 1, 2 * index))
    return mesh, checks


def _remainder_by_integral(z: complex, k: int, family: str, digits: int, log_t: float):
    """Method (b): periodic-kernel integral over [0, U] plus the series
    continuation of the remainder at z + U.

    U >= 1 is the shift at which :func:`_shifted_tail` certifies the
    continuation below 10^(log_t - digits - 9).  The panels are chosen
    before any node is evaluated (:func:`_mesh`), so that the proven
    quadrature and rounding error of each is within its width's share of
    10^(log_t - digits - 8), and each is summed once.  The kernel B_2k({u + offset}) is evaluated once per
    panel place within a piece (:class:`_PeriodicKernel`); the node loop
    (:func:`_panel_sum`) runs in fixed point at ``mp.prec + 20`` bits.
    """
    wp = digits + 25
    mesh: list[tuple[int, int, int]] = []
    levels = 0
    kernel = None
    try:
        with mp.workdps(wp):
            zz = mpc(z)
            tau_tail = mpf(10) ** (log_t - digits - 9)
            shift, tail_sum, tail_terms = _shifted_tail(zz, k, family, tau_tail)

            prec = mp.mp.prec + 20
            log_budget = (log_t - digits - 8) * _LN10 - math.log(shift)
            mesh, levels = _mesh(z, k, family, shift, prec, log_budget)
            kernel = _PeriodicKernel(k, prec)
            two_k = 2 * k
            integral = mpc(0)
            for panel in mesh:
                integral += _panel_sum(kernel, zz, two_k, *panel)

            return -integral + tail_sum, tail_sum, tail_terms, shift
    finally:
        _stats["panels"] += len(mesh)
        _stats["levels"] += levels
        _stats["node_evaluations"] += _NODES * len(mesh)
        _stats["kernel_evaluations"] += kernel.evaluations if kernel else 0
        deepest = max((level for _, level, _ in mesh), default=0)
        _stats["deepest_level"] = max(_stats["deepest_level"], deepest)


@_serialized
def oracle_remainder(
    z, k: int, family: str = "stirling", digits: int = 30, details: bool = False
):
    """Remainder after k series terms at z (closed right half-plane), to
    ``digits`` digits, verified by two independent methods.

    Returns the rounded method-(a) value (an ``mpc``), or a full
    :class:`RemainderWitness` when ``details=True``.  Method (a) takes
    lngamma from :func:`oracle_lngamma` (``mpmath.loggamma``), which method
    (b) does not use.  Raises a consistency error if the methods disagree
    beyond ``10^-digits`` relative to the larger of the two values and the
    k-th term's magnitude.
    """
    digits = _check_digits(digits)
    zc = _require_remainder_args(z, k, family)
    _stats["remainders"] += 1

    with mp.workdps(30):
        zz0 = mpc(zc)
        log_t = _log10_term(family, k, zz0)
        main_mag = float(abs(_main_terms_mp(family, zz0))) + 2.0
        first_mag = _log10_term(family, 1, zz0)
        cancel_scale = max(math.log10(main_mag), first_mag, log_t)
    loss = max(0, int(math.ceil(cancel_scale - log_t)))
    digits_a = digits + 12 + loss
    digits_a = ((digits_a + 19) // 20) * 20  # quantize for cache reuse
    if digits_a > MAX_DIGITS:
        raise ResourceLimitError(
            f"remainder at z={zc}, k={k} needs {digits_a} oracle digits "
            f"(cancellation), beyond the cap {MAX_DIGITS}"
        )

    with mp.workdps(digits_a + 15):
        zz = mpc(zc)
        lngamma_arg = zz if family == "stirling" else zz + mpf("0.5")
        lg = oracle_lngamma(lngamma_arg, digits_a)
        a_val = lg - _main_terms_mp(family, zz) - _partial_sum_mp(family, k, zz)

    b_val, tail_sum, tail_terms, shift = _remainder_by_integral(
        zc, k, family, digits, log_t
    )

    with mp.workdps(digits + 10):
        scale = max(abs(a_val), abs(b_val), mpf(10) ** log_t)
        difference = abs(a_val - b_val)
        tolerance = mpf(10) ** -digits * scale
        if difference > tolerance:
            raise ConsistencyError(
                f"remainder methods disagree at z={zc}, k={k}, {family}: "
                f"|a-b|={mp.nstr(difference, 5)} > tol={mp.nstr(tolerance, 5)}"
            )
    with mp.workdps(digits):
        out = +a_val
    if not details:
        return out
    with mp.workdps(digits):
        return RemainderWitness(
            value=out,
            method_a=+a_val,
            method_b=+b_val,
            digits_a=digits_a,
            shift=shift,
            tail_terms=tail_terms,
            tail_value=+tail_sum,
            difference=+difference,
            tolerance=+tolerance,
        )


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------


@_serialized
def oracle_theta(t, digits: int = 30) -> mpf:
    """theta(t) for t > 0 to ``digits`` digits.

    Computed from Im lngamma(1/2 + it) (:func:`oracle_lngamma`) as
    Im lngamma(1/2 + it)/2 - (t/2) log(2 pi) - pi/8 + arctan(e^(-pi t))/2.
    For t < 1, -pi/8 + arctan(e^(-pi t))/2 cancels from O(1) to O(t), so
    the sum takes ceil(-log10 t) more working digits.
    """
    digits = _check_digits(digits)
    tf = _height(t, "theta oracle")
    extra = math.ceil(-math.log10(tf)) if tf < 1.0 else 0
    with mp.workdps(digits + 15 + extra):
        tt = mpf(tf)
        lg = oracle_lngamma(mpc(mpf("0.5"), tt), min(digits + 8, MAX_DIGITS))
        value = (
            lg.imag / 2
            - tt / 2 * mp.log(2 * mp.pi)
            - mp.pi / 8
            + mp.atan(mp.exp(-mp.pi * tt)) / 2
        )
    with mp.workdps(digits):
        return +value


@_serialized
def oracle_theta_remainder(k: int, t, digits: int = 30) -> mpf:
    """Remainder of the theta series after k terms: Im(R_hat_{k+1}(it))/2."""
    tf = _height(t, "theta remainder oracle")
    digits = _check_digits(digits)
    r = oracle_remainder(
        complex(0.0, tf), k, "gauss", min(digits + 5, MAX_DIGITS)
    )
    with mp.workdps(digits):
        return +(r.imag / 2)


def _empirical_constant() -> mpf:
    return mpf(EMPIRICAL_CONSTANT.numerator) / EMPIRICAL_CONSTANT.denominator


@_serialized
def theta_series_value(
    t,
    k: int,
    digits: int = 30,
    variant: str = "standard",
) -> mpf:
    """Reference value of a truncated theta approximation at full precision:
    main terms plus k series terms, optionally with the arctan correction
    and the empirical least-term correction."""
    digits = _check_digits(digits)
    variant = getattr(variant, "value", variant)
    if variant not in ("standard", "arctan", "empirical"):
        raise DomainError(f"unknown theta variant {variant!r}")
    tf = _height(t, "theta series value")
    if type(k) is not int or k < 1:
        raise DomainError(f"term count must be a positive integer, got {k!r}")
    with mp.workdps(digits + 15):
        tt = mpf(tf)
        value = tt / 2 * (mp.log(tt) - mp.log(2 * mp.pi) - 1) - mp.pi / 8
        value += _partial_sum_mp("theta", k, tt)
        if variant in ("arctan", "empirical"):
            value += mp.atan(mp.exp(-mp.pi * tt)) / 2
        if variant == "empirical":
            report = k_min(tf)
            t_min = _term("theta", report.k_min, tt)
            value += (mp.pi * tt - report.k_min + _empirical_constant()) * t_min
    with mp.workdps(digits):
        return +value


# ---------------------------------------------------------------------------
# the normalized-error table
# ---------------------------------------------------------------------------


class NormalizedErrorRow(namedtuple(
    "NormalizedErrorRow",
    "t k_min standard_error proven_bound arctan_error empirical_error",
)):
    """One row of the normalized-error table at height ``t`` (float), with
    least-term index ``k_min`` (int) and four mpf columns.

    All normalizations are by the least term T_min = T_{k_min}(t):
    ``standard_error``  = (theta - standard approximation) / T_min,
    ``proven_bound``    = eta_{k_min} sqrt(pi k_min), the proven remainder
    bound in the same units,
    ``arctan_error``    = (theta - arctan-corrected approximation) / T_min,
    ``empirical_error`` = arctan_error - (pi t - k_min + 1/12), the residual
    of the empirical correction.  Values carry 25 significant digits.
    """

    __slots__ = ()


def required_table2_digits(t) -> int:
    """Digits needed to resolve the e^(-2 pi t)-scale columns with ~20+
    digits to spare."""
    return int(math.ceil(2.0 * math.pi * float(t) / _LN10)) + 30


@_serialized
def table2_row(t, digits: int | None = None) -> NormalizedErrorRow:
    """Compute one normalized-error row; ``digits=None`` uses the required
    minimum for the height t."""
    tf = _height(t, "table row")
    needed = required_table2_digits(tf)
    if digits is None:
        digits = needed
    digits = _check_digits(digits)
    if digits < needed:
        raise DomainError(
            f"table row at t={tf} needs at least {needed} digits, got {digits}"
        )
    report = k_min(tf)
    km = report.k_min
    theta_true = oracle_theta(tf, digits)
    standard = theta_series_value(tf, km, digits, "standard")
    with mp.workdps(digits + 15):
        tt = mpf(tf)
        t_min = _term("theta", km, tt)
        arctan_corrected = standard + mp.atan(mp.exp(-mp.pi * tt)) / 2
        col_a = (theta_true - standard) / t_min
        col_c = (theta_true - arctan_corrected) / t_min
        col_d = col_c - (mp.pi * tt - km + _empirical_constant())
        eta = eta_fraction(km)
        col_b = mpf(eta.numerator) / eta.denominator * mp.sqrt(mp.pi * km)
    with mp.workdps(25):
        return NormalizedErrorRow(
            t=tf,
            k_min=km,
            standard_error=+col_a,
            proven_bound=+col_b,
            arctan_error=+col_c,
            empirical_error=+col_d,
        )


# ---------------------------------------------------------------------------
# sharpness spots and the conjecture scan
# ---------------------------------------------------------------------------


@_serialized
def sharpness_ratio(k: int, y, digits: int = 20) -> mpf:
    """|Im R_{k+1}(iy)| / |T_k(iy)| on the imaginary axis.

    Every term T_j(iy) is purely imaginary, and the real part of the
    remainder is exactly -(1/2) log(1 - e^{-2 pi y}) for every k (it follows
    from |Gamma(iy)|^2 = pi / (y sinh(pi y))).  That exponentially small term
    is not a series remainder, so only the imaginary part is compared with
    the k-th term.  The remainder itself comes from :func:`oracle_remainder`
    and carries its two-method cross-check.
    """
    digits = _check_digits(digits)
    yf = _height(y, "sharpness ratio", "y")
    value = oracle_remainder(complex(0.0, yf), k, "stirling", digits)
    with mp.workdps(digits + 10):
        term_abs = abs(_term("stirling", k, mpf(yf)))
        ratio = abs(value.imag) / term_abs
    with mp.workdps(digits):
        return +ratio


class ConjectureSample(namedtuple(
    "ConjectureSample",
    "k abs_z arg_z true_over_term conjectured ratio violation status",
)):
    """One grid point of the conjectured-quadratic-bound scan: ``k`` (int),
    ``abs_z``, ``arg_z``, ``true_over_term``, ``conjectured`` and ``ratio``
    (float), ``violation`` (bool) and ``status`` (str: "proven" for k >= 34,
    "conjectured" below)."""

    __slots__ = ()


def conjecture_grid(k_max: int = 40):
    """The deterministic scan grid: |z| in {k, k+1/2, 2k, 10k} and
    arg z in {0, pi/4, pi/2}, stressing the k ~ |z| corner."""
    for k in range(1, k_max + 1):
        for modulus in (float(k), k + 0.5, 2.0 * k, 10.0 * k):
            for arg in (0.0, math.pi / 4.0, math.pi / 2.0):
                yield k, modulus, arg


def conjecture_scan(k_max: int = 40, digits: int = 20):
    """Yield one :class:`ConjectureSample` per grid point, in grid order.

    ``ratio`` is (true |R_{k+1}/T_k|) / (k^2 / (pi^2 |z|^2 - k^2)); the
    conjecture holds at a point when ratio <= 1.  Violations are reported,
    not raised: for k < 34 the bound is only conjectured.
    """
    digits = _check_digits(digits)
    for k, modulus, arg in conjecture_grid(k_max):
        if arg == 0.0:
            z = complex(modulus, 0.0)
        elif arg == math.pi / 2.0:
            z = complex(0.0, modulus)
        else:
            c = modulus / math.sqrt(2.0)
            z = complex(c, c)
        with _MPMATH_LOCK:
            value = oracle_remainder(z, k, "stirling", digits)
            with mp.workdps(digits + 10):
                term_abs = abs(_term("stirling", k, abs(mpc(z))))
                true_ratio = float(abs(value) / term_abs)
        conjectured = k * k / (math.pi * math.pi * modulus * modulus - k * k)
        ratio = true_ratio / conjectured
        yield ConjectureSample(
            k=k,
            abs_z=modulus,
            arg_z=arg,
            true_over_term=true_ratio,
            conjectured=conjectured,
            ratio=ratio,
            violation=ratio > 1.0,
            status="proven" if k >= 34 else "conjectured",
        )


# ---------------------------------------------------------------------------
# Bernoulli polynomials and the c_k constants
# ---------------------------------------------------------------------------


def _eval_dyadic(j: int, num: int, s: int) -> mpf:
    """``B_j(num / 2**s)``, correctly rounded to the working precision.

    With ``y = num / 2**s - 1/2 = yn / 2**(s+1)`` and the half-argument
    coefficients ``c_i = a_i / d`` on one denominator, ``B_j(1/2 + y)``
    is ``sum_i a_i Y^(n-i) 2^(2(s+1)i) / (d 2^(2(s+1)n))`` with
    ``Y = yn^2`` and ``n = j/2``: one Horner recursion on integers, exact,
    and a single rounding of the quotient.
    """
    numerators, den = shared_table().half_numerators(j)
    y2 = (2 * num - (1 << s)) ** 2
    step = 2 * (s + 1)
    acc = shift = 0
    for a in numerators:
        acc = acc * y2 + (a << shift)
        shift += step
    # the power of two goes in the exponent: a shifted denominator would
    # cost mpmath a bytewise scan of its trailing zeros
    quotient = mpf_div(from_int(acc), from_man_exp(den, shift - step), mp.mp.prec, round_nearest)
    return mp.make_mpf(quotient)


@_serialized
def periodic_bernoulli(j: int, u) -> mpf:
    """``B_j({u})`` with ``{u} = u - floor(u)``, for any finite real ``u``
    (taken as an mpf at working precision), correctly rounded.  ``{u}`` is
    formed exactly from the mantissa, so arguments near integer boundaries
    never land in the wrong unit interval."""
    u = mpf(u)
    if not mp.isfinite(u):
        raise DomainError(f"periodic_bernoulli argument must be finite, got {u}")
    sign, man, exp, _ = u._mpf_
    if exp >= 0:  # an integer
        man = exp = 0
    return _eval_dyadic(j, (-man if sign else man) % (1 << -exp), -exp)


@_serialized
def half_shift_identity_check(k: int, u, digits: int | None = None) -> bool:
    """Self-test of the polynomial layer via the half-argument identity

        2^(1-2k) B_{2k}({2u}) - B_{2k}({u}) = B_{2k}({u+1/2})

    for any real ``u``.  Returns whether the residual is below
    ``10^(5-digits)`` relative to the magnitude of the values involved
    (the values themselves grow like |B_{2k}|, so a purely absolute test
    would be vacuous for large k).
    """
    if type(k) is not int or k < 1:
        raise DomainError(f"half_shift_identity_check needs an int k >= 1, got {k!r}")
    if digits is None:
        digits = mp.mp.dps
    magnitude = abs(bernoulli_number(2 * k))
    extra = max(0, int(mp.log10(magnitude)) + 1) if magnitude > 1 else 0
    with mp.workdps(digits + 15 + extra):
        uu = mpf(u)
        lhs = periodic_bernoulli(2 * k, 2 * uu) / 2 ** (2 * k - 1)
        lhs -= periodic_bernoulli(2 * k, uu)
        rhs = periodic_bernoulli(2 * k, uu + mpf(1) / 2)
        scale = max(mpf(1), abs(lhs), abs(rhs))
        return bool(abs(lhs - rhs) < scale * mpf(10) ** (5 - digits))


@functools.lru_cache(maxsize=CK_MAX_K)
@_serialized
def _compute_ck(k: int) -> Fraction:
    """c_k as the exact value of its 50-digit print, cached per k:
    ``sum(|T_(k+j)(k) / T_k(k)| for j = 1..2k)
    + sqrt(3 k pi) |T_(3k)(k) / T_k(k)|`` with the term ratios taken at the
    real point ``z = k``, computed at 60 working digits from the stirling
    coefficients (:func:`_coeff`) and nudged up by a relative 1e-45, so the
    stored value is an upper bound on the true constant that is correct to
    well over 40 digits.
    """
    with mp.workdps(60):
        base = abs(_coeff("stirling", k))
        kk = mpf(k)
        total = mpf(0)
        for j in range(1, 2 * k + 1):
            ratio = (abs(_coeff("stirling", k + j)) / base) / kk ** (2 * j)
            total += ratio
        total += mp.sqrt(3 * k * mp.pi) * ratio  # the last ratio: T_(3k)
        stored = total * (1 + mpf(10) ** -45)
        return Fraction(mp.nstr(stored, 50, strip_zeros=False))


@_serialized
def c_k_string(k: int, decimals: int = 6) -> str:
    """``c_k`` rounded up at ``decimals`` places (1 to 100), as a decimal string."""
    _check_ck_index(k)
    if type(decimals) is not int or not 1 <= decimals <= 100:
        raise DomainError(f"c_k decimals must be an int in [1, 100], got {decimals!r}")
    fr = _compute_ck(k)
    scale = 10**decimals
    units = -((-fr.numerator * scale) // fr.denominator)
    whole, frac = divmod(units, scale)
    return f"{whole}.{frac:0{decimals}d}"
