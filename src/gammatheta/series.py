"""Asymptotic-series terms for the three expansion families.

Three term families share one shape, ``coefficient / argument**(2j-1)``:

* ``stirling``: terms of the log-gamma expansion in the right half-plane,
  coefficient ``B(2j) / (2j (2j-1))``;
* ``gauss``: terms of the expansion of ``lngamma(z + 1/2)``, coefficient
  ``B_half(2j) / (2j (2j-1))`` (these alternate against the stirling
  coefficients with a fixed rational ratio);
* ``theta``: positive real terms of the argument-of-gamma expansion on the
  imaginary axis, ``|B_half(2j)| / (4j (2j-1) t**(2j-1))``.

A stirling or gauss term keeps a binary exponent beside its mantissa, as
Arb's ``mag_t`` does, and every scaling is exact: so it is within about one
ulp per factor of its power at every magnitude, and bit for bit
``c * (1/z)**p`` wherever that power is normal.  A sum at ``|z| >= k``,
the certified path's case, runs a term-ratio recurrence in plain doubles
instead (``partial_sum``).  The bounds form a term's modulus from |z|.

A theta term is formed directly in doubles where ``t**p`` is a nonzero
double, and otherwise decided from its binary exponent when that puts it
past the double range (``+0.0`` below ``2**-1076``, ``inf`` above
``2**1025``), so only a term that can round to a finite nonzero double is
formed as an exact rational; every output is the same bits as the exact
rational rounded once (``theta_term``).

The theta family is divergent with a well-defined least term; ``k_min``
locates it by the ratio test ``T_(k+1) / T_k = (c_(k+1) / c_k) / t**2 >= 1``
on the stored mantissas and exponents of the coefficients, so no term is
formed and none over- or underflows.

Each family keeps one row table, the one store of what is kept per index,
grown under a lock to exactly the index asked.  Row j is ``(c_j, m, e,
ratio, screen)``: the exact c_j; ``c_j = m 2**e`` with m rounded once and
``1/2 <= |m| < 1``; ``partial_sum``'s ratio ``c_j / c_(j-1)`` rounded once
(c_1 at j = 1), for theta ``k_min``'s ``m_j / m_(j-1) 2**(e_j - e_(j-1))``
(None at j = 1); and, for stirling and gauss only, ``choose_k``'s screen log
(``bounds._screen_log``).
"""
from __future__ import annotations

import cmath
import math
import threading
from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from operator import itemgetter

from .bernoulli import bernoulli_half, bernoulli_number
from .errors import DomainError, ResourceLimitError
from . import bernoulli as _bernoulli_mod

__all__ = [
    "MinTermReport",
    "FAMILIES",
    "stirling_term",
    "gauss_term",
    "theta_term",
    "term_coefficient",
    "partial_sum",
    "k_min",
    "EMPIRICAL_CONSTANT",
]

FAMILIES = ("stirling", "gauss", "theta")

#: Smallest positive subnormal double; used to clamp fully underflowed
#: least-term magnitudes so downstream ratios stay finite.
TINY = 5e-324

#: The constant of the empirical least-term correction to theta,
#: ``(pi t - k_min + 1/12) * T_min``.
EMPIRICAL_CONSTANT = Fraction(1, 12)


class MinTermReport(namedtuple("MinTermReport", "t k_min t_min")):
    """Location and size of the least term of the theta family at ``t``:
    ``t`` (float), ``k_min`` (int), ``t_min`` (float)."""

    __slots__ = ()


def _require_index(j: int) -> None:
    if type(j) is not int or j < 1:
        raise DomainError(f"term index must be a positive integer, got {j!r}")
    if 2 * j > _bernoulli_mod.MAX_INDEX:
        raise ResourceLimitError(
            f"term index {j} needs Bernoulli index {2 * j} beyond cap "
            f"{_bernoulli_mod.MAX_INDEX}"
        )


#: The row tables of the module docstring; row j is ``_ROWS[kind][j]``.
_ROWS = {kind: [None] for kind in FAMILIES}
_ROWS_LOCK = threading.Lock()


def _row(kind: str, j: int) -> tuple:
    """Row j of a family's table, j checked as ``_require_index`` does; the
    table grows under the lock to exactly row j."""
    rows = _ROWS[kind]
    if type(j) is int and 0 < j < len(rows):
        return rows[j]
    _require_index(j)
    from .bounds import _screen_log  # bounds imports this module
    with _ROWS_LOCK:
        while len(rows) <= j:
            i, previous = len(rows), rows[-1]
            b = bernoulli_number(2 * i) if kind == "stirling" else bernoulli_half(2 * i)
            c = abs(b) / (4 * i * (2 * i - 1)) if kind == "theta" else b / (2 * i * (2 * i - 1))
            e = abs(c.numerator).bit_length() - c.denominator.bit_length()
            m, shift = math.frexp(float(c / Fraction(2) ** e))
            e += shift
            if kind == "theta":
                ratio = math.ldexp(m / previous[1], e - previous[2]) if previous else None
                rows.append((c, m, e, ratio))
            else:
                ratio = float(c / previous[0]) if previous else float(c)
                rows.append((c, m, e, ratio, _screen_log(kind, i, m, e)))
    return rows[j]


def _coefficient(kind: str, j: int) -> tuple[Fraction, float, int]:
    """The exact coefficient c and its ``(m, e)``: row j's first columns."""
    return _row(kind, j)[:3]


def term_coefficient(kind: str, j: int) -> Fraction:
    """Exact rational coefficient c with term_j(w) = c / w^(2j-1).

    For the theta family the coefficient is |B_2j(1/2)| / (4j(2j-1)),
    positive by construction; the other two families carry the sign of the
    Bernoulli factor.
    """
    _require_index(j)
    if kind not in FAMILIES:
        raise DomainError(f"unknown series family {kind!r}")
    return _coefficient(kind, j)[0]


def _ipow(w: complex, n: int) -> complex:
    """``w**n`` by binary exponentiation (a dozen rounded multiplies).  Up
    to n = 100 CPython's own ``w ** n`` runs this very loop, in C."""
    if n <= 100:
        return w ** n
    result = complex(1.0, 0.0)
    base = w
    while n:
        if n & 1:
            result *= base
        base *= base
        n >>= 1
    return result


def _inverse_scaled(z: complex) -> tuple[complex, int]:
    """``(1 / (z 2**-s), s)`` with ``|z 2**-s|`` in ``[2**-1/2, 2**1/2]``, so
    every power below the Bernoulli cap (p < 2000) stays in double range."""
    if z == 0:
        raise DomainError("series terms are undefined at argument 0")
    x, y = z.real, z.imag
    s = math.frexp(max(abs(x), abs(y)))[1]
    re, im = math.ldexp(x, -s), math.ldexp(y, -s)
    if re * re + im * im < 0.5:
        s -= 1
        re, im = 2.0 * re, 2.0 * im
    return 1.0 / complex(re, im), s


def _scaled_term(kind: str, j: int, inverse: complex, s: int) -> tuple[complex, int]:
    """The j-th term at the argument of ``(inverse, s)`` as ``(mantissa,
    exponent)``, ``|mantissa|`` in ``[2**-1001, 2**1000]``."""
    _, m, e = _coefficient(kind, j)
    p = 2 * j - 1
    return m * _ipow(inverse, p), e - p * s


def _ldexp(x: float, n: int) -> float:
    """``x * 2**n``, rounded once below the normal range, +-inf above it."""
    try:
        return math.ldexp(x, n)
    except OverflowError:
        return math.copysign(math.inf, x)


def _unscale(mantissa: complex, exponent: int) -> complex:
    """Apply the exponent to each part once: a zero part stays 0, a part
    past the double range is +-inf, and no part is NaN."""
    try:
        return complex(math.ldexp(mantissa.real, exponent), math.ldexp(mantissa.imag, exponent))
    except OverflowError:
        return complex(_ldexp(mantissa.real, exponent), _ldexp(mantissa.imag, exponent))


def stirling_term(j: int, z: complex) -> complex:
    """j-th term of the log-gamma expansion at ``z`` (any nonzero ``z``).

    A part past the double range is +-inf, one below it rounds once (to 0.0
    when it underflows fully); no part is NaN.
    """
    _require_index(j)
    return _unscale(*_scaled_term("stirling", j, *_inverse_scaled(complex(z))))


def gauss_term(j: int, z: complex) -> complex:
    """j-th term of the half-shifted expansion; equals
    ``-(1 - 2**(1-2j)) * stirling_term(j, z)`` exactly."""
    _require_index(j)
    return _unscale(*_scaled_term("gauss", j, *_inverse_scaled(complex(z))))


def theta_term(j: int, t: float) -> float:
    """j-th (positive) term of the theta expansion at ``t > 0``.

    The direct double path is used when representable (error <= ~3 ulp).
    Otherwise the term's size is bounded from the stored coefficient ``c =
    m 2**e``: ``L = log2(m) + e - p log2(t)``, p = 2j - 1.  A term with
    ``L < -1076`` is ``+0.0`` and one with ``L > 1025`` is ``inf``; only a
    term in between is formed as the exact rational ``c / t**p`` from the
    dyadic ``t`` and rounded once.  The bits are those of that rational in
    every case: m is rounded once, p < 2000 and ``|log2 t| <= 1075``, so L
    is within 1e-8 of the true log2, and a term it puts below ``2**-1076``
    or above ``2**1025`` is one the rational would round to 0.0 (below
    ``2**-1075``) or overflow (at or above ``2**1024``).
    """
    _require_index(j)
    t = float(t)
    if not (t > 0.0) or math.isinf(t):
        raise DomainError(f"theta terms require finite t > 0, got {t!r}")
    coeff, m, e, _ = _row("theta", j)
    p = 2 * j - 1
    try:
        tp = t**p
        if tp != 0.0 and math.isfinite(tp):
            return math.ldexp(m, e) / tp
    except OverflowError:
        pass
    log2_size = math.log2(m) + e - p * math.log2(t)
    if log2_size < -1076.0:
        return 0.0
    if log2_size > 1025.0:
        return math.inf
    exact = coeff / Fraction(t) ** p
    try:
        f = float(exact)
    except OverflowError:
        return math.inf
    return f


#: Below this modulus ``1.0 / w`` is a plain complex division.
_DIRECT_INVERSE_MAX = 2.0 ** 1000


def partial_sum(kind: str, k: int, argument: complex) -> complex:
    """Sum of the first ``k`` terms of a family, added in ascending index
    order.  ``k = 0`` returns 0.

    A theta sum stops once it is ``+inf``: its terms are positive, so the
    result is the same and no further term is formed.

    A stirling or gauss sum at ``|w| >= max(k, 1)`` (the certified path
    shifts to such a w) forms its terms by the recurrence ``T_1 = c_1 / w``,
    ``T_j = T_{j-1} (rho_j x)`` with ``x = 1/w**2`` and ``rho_j = c_j /
    c_{j-1}`` rounded once.  There ``|T_{j+1} / T_j| < j**2 / (pi |w|)**2 <
    1/pi**2``, so no term overflows and one that underflows goes to 0.

    Its error is a few ulp of ``|T_1| <= 1/12``.  With u = 2**-53 and
    normwise relative errors: ``1/w`` is within 5u, x within 13u and T_1
    within 7u; each later step adds at most 18u (rho_j, rho_j x and the
    complex product, 2.83u), so T_j is within 18 j u, and as ``|T_j| <=
    pi**(2-2j) |T_1|`` that is under ``18 u |T_1| / (1 - pi**-2)**2 < 23 u
    |T_1|`` over all j.  Each of the k additions adds at most u of a running
    sum below ``1.12 |T_1|``, and a term that underflows at most 2**-1074.
    In all the sum is off by under ``(23 + 1.12 k) u |T_1|``, which is below
    2k ulp of 1: the k-operation share of the floating-point charge that
    ``lngamma`` adds to the radius.

    Every other argument takes the scaled-term loop: each term is a mantissa
    and a binary exponent, a part past the double range is +-inf and a NaN
    from inf + (-inf) is repaired."""
    if kind not in FAMILIES:
        raise DomainError(f"unknown series family {kind!r}")
    if type(k) is not int or k < 0:
        raise DomainError(f"term count must be a non-negative int, got {k!r}")
    if kind == "theta":
        t = float(argument.real) if isinstance(argument, complex) else float(argument)
        total = 0.0
        for j in range(1, k + 1):
            total += theta_term(j, t)
            if total == math.inf:
                break
        return total
    acc = complex(0.0, 0.0)
    if k == 0:
        return acc
    w = complex(argument)
    modulus = math.hypot(w.real, w.imag)
    if modulus >= k:
        rows = _ROWS[kind]
        if len(rows) <= k:
            _row(kind, k)
        if modulus < _DIRECT_INVERSE_MAX:
            inv = 1.0 / w
        else:
            # complex division forms |w|**2 / Re w, which overflows up here
            scaled_inv, s = _inverse_scaled(w)
            inv = _unscale(scaled_inv, -s)
        x = inv * inv
        term = rows[1][3] * inv
        acc += term
        for row in rows[2:k + 1]:
            term *= row[3] * x
            acc += term
        return acc
    scaled = _inverse_scaled(w)
    for j in range(1, k + 1):
        t = _unscale(*_scaled_term(kind, j, *scaled))
        total = acc + t
        if cmath.isnan(total):
            # inf + (-inf): terms overflow only where they grow with j (the
            # argument far below j/pi), so the later term dominates.
            total = complex(
                t.real if math.isnan(total.real) else total.real,
                t.imag if math.isnan(total.imag) else total.imag,
            )
        acc = total
    return acc


#: ``c_1000 / c_999`` of the theta family, as ``k_min``'s ratio test forms it
#: from the stored mantissas and exponents: the largest ratio the Bernoulli
#: cap admits, so the largest ``t**2`` with a least term below the cap.
_LAST_RATIO = float.fromhex("0x1.8acc085cbbe27p+16")


def k_min(t: float) -> MinTermReport:
    """Index of the least theta term at ``t``: the first ``k`` with
    ``term(k) <= term(k+1)`` (ties count), found by the ratio test
    ``c_(k+1) / c_k >= t**2`` on the coefficients' mantissas and exponents.

    The ratios increase with k, so the scan stops at k <= 999 (the last
    index whose successor the Bernoulli cap admits) iff ``t**2`` is at most
    the k = 999 ratio, ``_LAST_RATIO``; a larger ``t**2`` is refused before
    the table grows.  The ratios are the theta rows' own column, bisected
    where grown and scanned on past that."""
    t = float(t)
    if not (t > 0.0) or math.isinf(t):
        raise DomainError(f"k_min requires finite t > 0, got {t!r}")
    square = t * t
    if square > _LAST_RATIO:
        raise ResourceLimitError(
            f"least term of the theta family at t={t} lies beyond the "
            f"Bernoulli cap (scanned to k={_bernoulli_mod.MAX_INDEX // 2})"
        )
    rows = _ROWS["theta"]
    k = bisect_left(rows, square, 2, len(rows), key=itemgetter(3)) - 1
    while k + 1 >= len(rows) and _row("theta", k + 1)[3] < square:
        k += 1
    t_min = theta_term(k, t)
    if t_min == 0.0:
        t_min = TINY
    return tuple.__new__(MinTermReport, (t, k, t_min))  # not its Python-level __new__
