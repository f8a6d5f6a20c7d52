"""Proven truncation-error bounds for the three series families.

Every bound here is a theorem about the remainder of a truncated expansion:
``value`` is an absolute bound on the targeted remainder, ``normalized`` the
same bound divided by the magnitude of the reference term (the last summed
term for an after-k-terms target, the first omitted term otherwise; the
Behnke–Sommer bound is natively relative to the first omitted term).

Upward-rounding policy: bounds are mathematical suprema, so every floating
chain that produces a bound is topped with ``(1 + 2**-40)`` guard factors —
enough to swamp double rounding, far too small to matter against the >1%
slack the bounds themselves carry.  Every bound is one factor, formed from k
and the parts of z, times the modulus |c_k| / |z|**(2k-1) of one series
term, taken as a mantissa and a binary exponent applied once
(``_times_term``).  Below the normal range (2**-1022), where a guard factor
no longer moves a value, the product is stepped up once, so no bound is
below the smallest subnormal; one past the double range is ``inf``.

The catalog, by the kind each bound reports.  ``rigorous_bound`` builds the
rigorous ones: the ladder kinds of a context (below) and, for ``stirling``,
the four classical kinds, with kinds and targets read by value.

=====================  ================================================
kind                   bounds
=====================  ================================================
GAMMA_RATIO            |R| of the plain family by sqrt(pi)*Gamma(k+1/2)
                       / Gamma(k) * |T_k|, right half-plane
SQRT_PIK               its weaker closed form sqrt(pi k) * |T_k|
QUADRATIC              (k/|z|)^2 / (pi^2 - 1) * |T_k| when k <= |z|
CK_QUADRATIC           c_k (k/|z|)^2 * |T_k|, k <= 100, via the stored
                       constant table
HALF_GAMMA_RATIO,      the same three transported to the half-shifted
HALF_SQRT_PIK,         family at the cost of the factor
HALF_QUADRATIC         eta_k = 1/(1 - 2**(1-2k))  (CK transports too,
                       keeping its own kind tag)
THETA_GAMMA_RATIO,     the half-family rungs GAMMA_RATIO, SQRT_PIK and
THETA_SQRT_PIK,        QUADRATIC at z = t, on the theta term |T_k(t)|,
THETA_QUADRATIC        which is half the half-family term's modulus:
                       eta_k * factor * |T_k(t)| for finite t > 0
                       (eta_k sqrt(pi) Gamma(k+1/2)/Gamma(k) |T_k(t)| is
                       sqrt(pi) Gamma(k-1/2) |B_2k| / (8 k! t^(2k-1)))
WHITTAKER_WATSON       classical |R_k| <= K |T_k|, Re z > 0: K = 1 where
                       |Im z| <= Re z, else 1/|sin 2 arg z|
                       = (Re z/|Im z| + |Im z|/Re z)/2, its power of 2
                       applied with the term's
STIELTJES              classical |R_k| <= sec(arg z/2)^(2k) |T_k| off the
                       closed negative real axis, sec^2(arg z/2)
                       = 2|z| / (|z| + Re z)
BEHNKE_SOMMER          classical |R_{k+1}/T_{k+1}| < 1+(2k+1)/2*sqrt(pi/k)
HARE                   |R_k| <= 4 sqrt(pi) Gamma(k+1/2)/Gamma(k) |T_k(i Im z)|,
                       Im z != 0
=====================  ================================================

Selection.  Each context has a ladder of the paper's own families, strongest
first, as ``rigorous_bound`` builds them: CK_QUADRATIC, QUADRATIC,
GAMMA_RATIO, SQRT_PIK for ``stirling``; CK_QUADRATIC, HALF_QUADRATIC,
HALF_GAMMA_RATIO, HALF_SQRT_PIK for ``gauss``; THETA_QUADRATIC,
THETA_GAMMA_RATIO, THETA_SQRT_PIK for ``theta``, the gauss rungs of the same
bases at z = t.  Every rung is its factor times one shared term, and the
factors are c_k < 1/(pi^2 - 1) < pi/2 <= sqrt(pi) Gamma(k+1/2)/Gamma(k) <
sqrt(pi k) (the quadratic forms need k <= |z|, c_k also k <= 100), times
eta_k for the half and theta rungs.  Rounding, including the step below
the normal range, is monotone, so no later applicable rung is smaller in
doubles either.  ``best_bound`` builds only the first applicable rung and
the classical bounds at the target and returns the smallest; after k terms
Behnke-Sommer is at least 1.69 times a quadratic rung (exact
|c_(k+1)/c_k|, k < 1000), so it is not built behind one.  Ties: a classical
bound replaces the rung only when strictly smaller, so at a tie the kind
reported is the ladder's first applicable family (then the classical bounds
in catalog order).  Theta has no classical bounds, so its best bound is its
first applicable rung.

The certified path shifts to |w| >= k with Re w >= 0, where ``best_bound``
after k terms is the first rung, ``_quadratic_rung``: c_k (k/|w|)^2 |T_k(w)|
up to k = 100, (k/|w|)^2 / (pi^2 - 1) |T_k(w)| above, times eta_k for gauss.
``lngamma.choose_k`` screens k by an estimate of the rung's log (see
``_screen_log``), skips k only where it exceeds log eps by a margin of 1e-6,
far above the estimate's error, and builds the exact rung at the k it
cannot rule out; so the smallest k that meets eps is never skipped.

The constants c_1 .. c_100 are stored here as doubles rounded up
(``c_k``).  Their 50-digit computation and decimal print
(``oracle.c_k_string``, behind the ``table1`` command) live in the oracle,
so this module holds no mpmath code.
"""
from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .fputil import ceil_float, up
from .series import _row, stirling_term

__all__ = [
    "BoundKind",
    "Target",
    "BoundResult",
    "CK_MAX_K",
    "eta",
    "eta_fraction",
    "c_k",
    "rigorous_bound",
    "faulty_theta_bound",
    "best_bound",
    "applicable_bounds",
    "CONTAINMENT_T",
    "containment_grid",
]


#: Containment z-grid: every rigorous bound must dominate the true remainder
#: at each of these arguments (for every k in the certification k-range).
#: A right-half-plane lattice re x im plus positive-real anchors; the
#: imaginary-axis column (re = 0) is where the bounds are tightest.
_CONTAINMENT_RE = (0.0, 0.5, 1.0, 5.0)
_CONTAINMENT_IM = (0.1, 1.0, 10.0, 40.0)
_CONTAINMENT_REAL = (1.0, 5.0, 25.0)

#: t-grid for the theta-series containment checks (same role as the z-grid).
CONTAINMENT_T = (0.1, 1.0, 10.0, 40.0)


def containment_grid() -> tuple[complex, ...]:
    """The documented closed-right-half-plane certification grid (19 points)."""
    points = [
        complex(re, im) for re in _CONTAINMENT_RE for im in _CONTAINMENT_IM
    ]
    points.extend(complex(x, 0.0) for x in _CONTAINMENT_REAL)
    return tuple(points)


class BoundKind(str, Enum):
    GAMMA_RATIO = "gamma-ratio"
    SQRT_PIK = "sqrt-pi-k"
    QUADRATIC = "quadratic"
    CK_QUADRATIC = "ck-quadratic"
    HALF_GAMMA_RATIO = "half-gamma-ratio"
    HALF_SQRT_PIK = "half-sqrt-pi-k"
    HALF_QUADRATIC = "half-quadratic"
    THETA_GAMMA_RATIO = "theta-gamma-ratio"
    THETA_SQRT_PIK = "theta-sqrt-pi-k"
    THETA_QUADRATIC = "theta-quadratic"
    WHITTAKER_WATSON = "whittaker-watson"
    STIELTJES = "stieltjes"
    BEHNKE_SOMMER = "behnke-sommer"
    HARE = "hare"


class Target(str, Enum):
    """Which remainder a bound certifies, relative to ``k`` summed terms."""

    #: Error after summing k terms (the k-th term is the last included).
    R_KP1 = "after-k-terms"
    #: Error after summing k-1 terms (the k-th term is the first omitted).
    R_K = "before-k-th-term"


class BoundResult(namedtuple(
    "BoundResult",
    "kind target value normalized applicable reason flags",
    defaults=(True, "", ()),
)):
    """One bound: ``kind`` (BoundKind), ``target`` (Target), ``value`` and
    ``normalized`` (float), ``applicable`` (bool), ``reason`` (str) and
    ``flags`` (tuple of str)."""

    __slots__ = ()


def _not_applicable(kind: BoundKind, target: Target, reason: str) -> BoundResult:
    return _new(BoundResult, (kind, target, math.inf, math.inf, False, reason, ()))


#: Guard-chain count for every bound value: covers the lgamma / exp chain of
#: ``_gamma_ratio`` (under 1.5e-12 relative at k <= 1000) and the power of a
#: factor rounded a few times (under 7e-13 there) with slack.
_CHAINS = 12
#: Smallest positive normal double.
_NORMAL_MIN = sys.float_info.min
#: Builds a namedtuple without its Python-level ``__new__``.
_new = tuple.__new__
#: 2**-1/2, the least scaled modulus ``_times_term`` raises to a power.
_SQRT_HALF = math.sqrt(0.5)

_LOG_2 = math.log(2.0)

#: pi^2 - 1 rounded down two places: a safe denominator for upper bounds.
_PI2M1_DOWN = math.nextafter(math.nextafter(math.pi * math.pi - 1.0, 0.0), 0.0)


def _times_term(
    normalized: float, family: str, k: int, argument: complex, scale: int = 0
) -> float:
    """``normalized 2**scale |T_k(argument)|`` of a series family, rounded
    up, from the modulus alone: ``|T_k(z)| = |m| 2**e / |z|**p`` with
    p = 2k - 1.

    The parts are scaled exactly by 2**-s, so ``a = |z| 2**-s`` lies in
    [2**-1/2, 2**1/2] and neither ``hypot`` nor ``a**p`` (p < 2000) leaves
    the double range.  With a within 1u and the power within 1 ulp, ``|m| /
    a**p`` is within (p + 3)u <= 2.3e-13, inside one of the guard factors.
    The exponent ``e - p s + scale`` is applied once: a value below the
    normal range is rounded once and stepped up, one past the double range
    is ``inf``."""
    mantissa, exponent = _row(family, k)[1:3]
    x, y = argument.real, argument.imag
    ax, ay = abs(x), abs(y)
    s = math.frexp(ay if ay > ax else ax)[1]  # max(ax, ay) without the call, NaN alike
    a = math.hypot(math.ldexp(x, -s), math.ldexp(y, -s))
    if a < _SQRT_HALF:
        a, s = 2.0 * a, s - 1
    p = 2 * k - 1
    fraction, shift = math.frexp(abs(mantissa) / a ** p)
    try:
        value = math.ldexp(
            up(normalized * fraction, _CHAINS), exponent - p * s + shift + scale
        )
    except OverflowError:
        return math.inf
    if value < _NORMAL_MIN:
        return math.nextafter(value, math.inf)
    return value if value < math.inf else math.inf  # a NaN part bounds nothing


def _check_k(k: int) -> None:
    if type(k) is not int or k < 1:
        raise DomainError(f"bound index must be a positive integer, got {k!r}")


def eta_fraction(k: int) -> Fraction:
    """Exact ``1/(1 - 2**(1-2k))`` as a rational."""
    _check_k(k)
    p = 1 << (2 * k - 1)
    return Fraction(p, p - 1)


@lru_cache(maxsize=1024, typed=True)
def eta(k: int) -> float:
    """``1/(1 - 2**(1-2k))`` rounded upward in the last place (always > 1),
    cached per k."""
    return ceil_float(eta_fraction(k))


# ---------------------------------------------------------------------------
# The c_k constants.
# ---------------------------------------------------------------------------

#: Largest k with a stored constant c_k.
CK_MAX_K = 100

#: c_1 .. c_100, each the double just above the exact value of its 50-digit
#: print in ``oracle._compute_ck`` (a test recomputes every one).
_CK_UP = (
    0.0720950487984711, 0.10396004048581073, 0.1042937853269217, 0.1053035262187288,
    0.10645984220609717, 0.10738388017790125, 0.10808821262442529, 0.10863369726261157,
    0.10906673214713522, 0.10941827683384735, 0.10970909540374776, 0.10995352481743288,
    0.11016175798624664, 0.11034122884846281, 0.11049747990621103, 0.11063472371715158,
    0.11075621683075286, 0.11086451503482045, 0.11096165140860767, 0.1110492629640643,
    0.11112868231484437, 0.11120100509711085, 0.11126714028231673, 0.1113278482255247,
    0.11138376979174865, 0.11143544890370354, 0.1114833501780964, 0.11152787285265985,
    0.11156936188181976, 0.11160811684959226, 0.11164439918413693, 0.11167843803946409,
    0.11171043512268856, 0.111740568680766, 0.1117689968124881, 0.1117958602352047,
    0.11182128460813064, 0.11184538249293204, 0.11186825501594096, 0.11188999328363185,
    0.11191067959303401, 0.11193038847090431, 0.11194918756925842, 0.11196713843989252,
    0.11198429720654363, 0.11200071515012483, 0.11201643921986842, 0.11203151248109036,
    0.11204597450855562, 0.11205986173299906, 0.11207320774718177, 0.11208604357688835,
    0.11209839792146163, 0.11211029736779513, 0.1121217665811377, 0.11213282847558896,
    0.11214350436676294, 0.11215381410875795, 0.1121637762172829, 0.1121734079805448,
    0.11218272555929357, 0.1121917440772408, 0.11220047770291593, 0.11220893972389089,
    0.11221714261419037, 0.1122250980956067, 0.11223281719355241, 0.11224031028801011,
    0.1122475871600742, 0.11225465703452306, 0.1122615286188112, 0.11226821013882757,
    0.1122747093717287, 0.11228103367612208, 0.11228719001984572, 0.11229318500556469,
    0.11229902489438168, 0.11230471562763941, 0.11231026284707428, 0.11231567191346471,
    0.1123209479239041, 0.11232609572781486, 0.11233111994180973, 0.11233602496349553,
    0.11234081498430658, 0.11234549400144613, 0.11235006582900742, 0.11235453410833937,
    0.11235890231771596, 0.11236317378136351, 0.11236735167789479, 0.11237143904819506,
    0.11237543880280126, 0.11237935372881164, 0.11238318649636066, 0.11238693966469049,
    0.1123906156878483, 0.11239421692003582, 0.11239774562063577, 0.11240120395893777,
)


def _check_ck_index(k: int) -> None:
    _check_k(k)
    if k > CK_MAX_K:
        raise DomainError(
            f"c_k constants are verified only for k <= {CK_MAX_K}, got {k}"
        )


def c_k(k: int) -> float:
    """Upper bound on the k-th quadratic-bound constant (k <= 100)."""
    _check_ck_index(k)
    return _CK_UP[k - 1]


# ---------------------------------------------------------------------------
# The ladders: the paper's own families (right half-plane, theta at t > 0).
# ---------------------------------------------------------------------------

def _right_half_plane(z: complex) -> bool:
    return z != 0 and z.real >= 0.0 and cmath.isfinite(z)


def _gamma_ratio(k: int) -> float:
    """``sqrt(pi) Gamma(k+1/2) / Gamma(k)``, one upward guard per the policy."""
    return up(math.sqrt(math.pi) * math.exp(math.lgamma(k + 0.5) - math.lgamma(k)))


def _plain_factor(kind: BoundKind, k: int, z: complex) -> float | str:
    """After-k-terms normalized factor of a plain-family bound at ``z``, or
    the reason the bound does not apply there; no term is formed."""
    if not _right_half_plane(z):
        return "requires the closed right half-plane, z != 0"
    if kind is BoundKind.GAMMA_RATIO:
        return _gamma_ratio(k)
    if kind is BoundKind.SQRT_PIK:
        return up(math.sqrt(math.pi * k))
    if kind is BoundKind.CK_QUADRATIC and k > CK_MAX_K:
        return f"c_k verified only for k <= {CK_MAX_K}"
    try:
        az = abs(z)  # to the bit as ``_quadratic_rung`` takes it
    except OverflowError:  # |z| past the double range, where (k/|z|)^2 is 0
        az = math.inf
    if k > az:
        return "requires k <= |z|"
    return _quadratic(k, az, kind is BoundKind.CK_QUADRATIC)


def _quadratic(k: int, az: float, ck: bool) -> float:
    """``c_k (k/|z|)^2``, or ``(k/|z|)^2 / (pi^2 - 1)`` if not ``ck``, rounded
    up, from ``az = |z|``."""
    ratio = k / az
    if ck:
        return up(_CK_UP[k - 1] * ratio * ratio, 2)
    return up(ratio * ratio / _PI2M1_DOWN, 2)


def _family_value(
    family: str, k: int, z: complex, factor: float, extra: float = 0.0
) -> tuple[float, float]:
    """``(normalized, value)`` of a family's bound from its base's after-k-terms
    factor: gauss and theta carry eta_k, and ``extra = 1`` gives the
    before-k-th-term form (triangle inequality)."""
    if family != "stirling":
        factor = eta(k) * up(factor, _CHAINS)
    normalized = up(factor + extra, _CHAINS)
    return normalized, _times_term(normalized, family, k, z)


#: The ladders of the module docstring, strongest first: per family, each
#: rung's base kind and the kind its bound reports.
_LADDERS = {
    "stirling": {
        BoundKind.CK_QUADRATIC: BoundKind.CK_QUADRATIC,
        BoundKind.QUADRATIC: BoundKind.QUADRATIC,
        BoundKind.GAMMA_RATIO: BoundKind.GAMMA_RATIO,
        BoundKind.SQRT_PIK: BoundKind.SQRT_PIK,
    },
    "gauss": {
        BoundKind.CK_QUADRATIC: BoundKind.CK_QUADRATIC,
        BoundKind.QUADRATIC: BoundKind.HALF_QUADRATIC,
        BoundKind.GAMMA_RATIO: BoundKind.HALF_GAMMA_RATIO,
        BoundKind.SQRT_PIK: BoundKind.HALF_SQRT_PIK,
    },
    "theta": {
        BoundKind.QUADRATIC: BoundKind.THETA_QUADRATIC,
        BoundKind.GAMMA_RATIO: BoundKind.THETA_GAMMA_RATIO,
        BoundKind.SQRT_PIK: BoundKind.THETA_SQRT_PIK,
    },
}


def _quadratic_rung(family: str, k: int, w: complex) -> tuple[BoundKind, float]:
    """Kind and value of ``best_bound`` after k terms at w with Re w >= 0 and
    |w| >= k: the ladder's first rung, ``ck-quadratic`` for k <= 100 and
    ``quadratic`` (``half-quadratic`` for gauss) above."""
    ck = k <= CK_MAX_K
    kind = _LADDERS[family][BoundKind.CK_QUADRATIC if ck else BoundKind.QUADRATIC]
    return kind, _family_value(family, k, w, _quadratic(k, abs(w), ck))[1]


def _ladder_bound(
    family: str, base: BoundKind, k: int, z: complex, target: Target
) -> BoundResult:
    """A bound of base kind ``base`` for ``family`` at ``z``; theta reads
    the real part of ``z`` as its height t."""
    _check_k(k)
    z = complex(z)
    kind = _LADDERS[family][base]
    if family == "theta":
        z = complex(z.real)
        if not 0.0 < z.real < math.inf:
            return _not_applicable(kind, target, "requires finite t > 0")
    factor = _plain_factor(base, k, z)
    if isinstance(factor, str):
        return _not_applicable(kind, target, factor)
    extra = 1.0 if target is Target.R_K else 0.0
    normalized, value = _family_value(family, k, z, factor, extra)
    return _new(BoundResult, (kind, target, value, normalized, True, "", ()))


# ---------------------------------------------------------------------------
# Classical bounds from the literature (plain family only).
# ---------------------------------------------------------------------------

#: The classical bounds of the literature by native target (``_NATIVE``
#: maps each back).  They bound the plain family only and keep no fixed
#: order against the ladders.
_CLASSICAL = {
    Target.R_KP1: (BoundKind.BEHNKE_SOMMER,),
    Target.R_K: (BoundKind.WHITTAKER_WATSON, BoundKind.STIELTJES, BoundKind.HARE),
}
_NATIVE = {kind: target for target, kinds in _CLASSICAL.items() for kind in kinds}


def _classical(kind: BoundKind, k: int, z: complex, target: Target) -> BoundResult:
    """One of the four classical plain-family bounds, at its native target.

    WHITTAKER_WATSON, STIELTJES and HARE bound the remainder with the k-th
    term *omitted* (before-k-th-term); BEHNKE_SOMMER bounds the remainder
    after k terms, relative to the first omitted term.
    """
    _check_k(k)
    z = complex(z)
    if z == 0:
        return _not_applicable(kind, target, "argument must be nonzero")
    if not cmath.isfinite(z):
        return _not_applicable(kind, target, "argument has a non-finite part")
    native = _NATIVE[kind]
    if target is not native:
        return _not_applicable(kind, target, f"bounds only the {native.value} remainder")
    x, y = z.real, abs(z.imag)

    if kind is BoundKind.BEHNKE_SOMMER:
        if not _right_half_plane(z):
            return _not_applicable(kind, target, "requires the closed right half-plane, z != 0")
        normalized = up(1.0 + 0.5 * (2 * k + 1) * math.sqrt(math.pi / k), _CHAINS)
        value = _times_term(normalized, "stirling", k + 1, z)
        return BoundResult(kind, target, value, normalized, flags=("RELATIVE_TO_NEXT_TERM",))

    if kind is BoundKind.HARE:
        if y == 0.0:
            return _not_applicable(kind, target, "requires Im(z) != 0")
        factor = up(4.0 * _gamma_ratio(k), _CHAINS)
        value = _times_term(factor, "stirling", k, complex(0.0, y))
        term = stirling_term(k, z)
        at = math.hypot(term.real, term.imag)
        normalized = up(value / at, 2) if at > 0 and value < math.inf else math.inf
        return BoundResult(kind, target, value, normalized)

    factor, scale = 1.0, 0
    if kind is BoundKind.WHITTAKER_WATSON:
        if x <= 0.0:
            return _not_applicable(kind, target, "requires Re(z) > 0")
        if y > x:
            # 2**s (m_x/m_y 2**-2s + m_y/m_x)/2 from x = m_x 2**e_x and
            # y = m_y 2**e_y, s = e_y - e_x: 2**s joins the term's ldexp
            (mx, ex), (my, ey) = math.frexp(x), math.frexp(y)
            scale = ey - ex
            factor = up(0.5 * (math.ldexp(mx / my, -2 * scale) + my / mx), _CHAINS)
    else:  # STIELTJES
        # sec^2(arg z/2) = 2|z| / (|z| + x), from y/x or x/y so that no
        # modulus overflows or loses bits below 2**-1022: as 2 / (1 + x/|z|)
        # for x >= 0, and as 2 (|z|/y) ((|z| - x)/y) left of the axis, where
        # |z| + x cancels
        if x >= 0.0:
            sec2 = 2.0 / (1.0 + 1.0 / math.hypot(1.0, y / x)) if x else 2.0
        elif y:
            ratio = x / y
            modulus = math.hypot(ratio, 1.0)
            sec2 = 2.0 * modulus * (modulus - ratio)
        else:
            return _not_applicable(kind, target, "requires |arg z| < pi")
        # sec^2k = m^k 2^(ek) from sec^2 = m 2^e: 2^(ek) joins the term's
        # ldexp, and m^k >= 2^-k stays normal for every k the term allows
        mantissa, exponent = math.frexp(sec2)
        factor, scale = up(mantissa**k, _CHAINS), exponent * k
    value = _times_term(factor, "stirling", k, z, scale)
    try:
        normalized = math.ldexp(factor, scale)
    except OverflowError:  # the factor alone passes the double range
        normalized = math.inf
    return BoundResult(kind, target, value, normalized)


# ---------------------------------------------------------------------------
# Non-rigorous bounds: kept only for falsification tests.
# ---------------------------------------------------------------------------

def faulty_theta_bound(k: int, t: float) -> float:
    """A historically published — and provably wrong — theta-series error
    bound: ``(2k)! / ((2 pi)^(2k+2) t^(2k+1)) + e^(-pi t)``.

    Returned as a plain number: it must never participate in certification.
    """
    _check_k(k)
    t = float(t)
    if not (t > 0.0):
        raise DomainError(f"faulty bound requires t > 0, got {t!r}")
    logv = (
        math.lgamma(2 * k + 1)
        - (2 * k + 2) * math.log(2.0 * math.pi)
        - (2 * k + 1) * math.log(t)
    )
    try:
        power_part = math.exp(logv)
    except OverflowError:
        return math.inf
    exp_part = math.exp(-math.pi * t) if -math.pi * t > -745.0 else 0.0
    return power_part + exp_part


# ---------------------------------------------------------------------------
# Selection.
# ---------------------------------------------------------------------------

def _screen_log(family: str, k: int, mantissa: float, exponent: int) -> float:
    """``L_k + 2 log k`` of a stirling or gauss row (``series``): less (2k+1)
    log|w|, the log of ``_quadratic_rung`` at w up to roundings and guards.
    L_k is the log of the rung's constant (c_k, or 1/(pi^2 - 1) above
    k = 100, times eta_k for gauss) times |mantissa| 2**exponent."""
    constant = _CK_UP[k - 1] if k <= CK_MAX_K else 1.0 / _PI2M1_DOWN
    if family == "gauss":
        constant *= eta(k)
    return math.log(constant * abs(mantissa) * k * k) + exponent * _LOG_2


def _by_value(enum: type, value):
    """The member of ``enum`` whose value is ``value``; a member is its own."""
    try:
        return enum(value)
    except ValueError:
        raise DomainError(f"unknown {enum.__name__} {value!r}") from None


def _tables(context: str, target: Target) -> tuple[dict, tuple[BoundKind, ...], Target]:
    """The context's ladder, its classical bounds at ``target`` and the
    target read by value; a member passes with a type check only, since
    ``eval_theta`` calls ``best_bound`` with one at every evaluation."""
    if type(target) is not Target:
        target = _by_value(Target, target)
    if context not in _LADDERS:
        raise DomainError(f"unknown bound context {context!r}")
    classical = _CLASSICAL[target] if context == "stirling" else ()
    return _LADDERS[context], classical, target


def rigorous_bound(
    kind: BoundKind, k: int, argument: complex, context: str,
    target: Target = Target.R_KP1,
) -> BoundResult:
    """The bound reporting ``kind`` in ``context``: a rung of its ladder, or
    for ``stirling`` a classical bound (not applicable off its native target);
    theta reads the real part of ``argument`` as t.  An unknown kind, target
    or context, or a kind the context lacks, is a ``DomainError``."""
    ladder, _, target = _tables(context, target)
    kind = _by_value(BoundKind, kind)
    for base, reported in ladder.items():
        if reported is kind:
            return _ladder_bound(context, base, k, argument, target)
    if context == "stirling" and kind in _NATIVE:
        return _classical(kind, k, argument, target)
    raise DomainError(f"the {context} context has no rigorous bound {kind.value!r}")


def applicable_bounds(
    k: int, argument: complex, context: str, target: Target = Target.R_KP1
) -> list[BoundResult]:
    """Every rigorous bound for the context/target, applicable or not: the
    context's ladder in order, then its classical bounds."""
    ladder, classical, target = _tables(context, target)
    return [_ladder_bound(context, base, k, argument, target) for base in ladder] + [
        _classical(kind, k, argument, target) for kind in classical
    ]


def best_bound(
    k: int, argument: complex, context: str, target: Target = Target.R_KP1
) -> BoundResult:
    """Minimum applicable rigorous bound (the faulty theta bound is excluded
    by construction: it is not in the candidate set).

    Only the first applicable ladder entry and the classical bounds can be
    the minimum (after k terms, behind a quadratic rung, only the rung), so
    only they are built; a classical bound replaces the ladder entry only
    when strictly smaller.
    """
    ladder, classical, target = _tables(context, target)
    best: BoundResult | None = None
    for base in ladder:
        candidate = _ladder_bound(context, base, k, argument, target)
        if candidate.applicable:
            best = candidate
            break
    quadratic = (BoundKind.CK_QUADRATIC, BoundKind.QUADRATIC)
    if target is Target.R_KP1 and best is not None and best.kind in quadratic:
        return best
    for kind in classical:
        candidate = _classical(kind, k, argument, target)
        if candidate.applicable and (best is None or candidate.value < best.value):
            best = candidate
    if best is None:
        raise DomainError(
            f"no applicable bound for k={k}, argument={argument!r}, "
            f"context={context!r}, target={target.value}"
        )
    return best
