"""Certified double-precision evaluation of lngamma(z) and lngamma(z+1/2).

A result is a value plus a radius that contains the truth: radius =
(proven truncation bound at the shifted argument) + (coarse accumulated
floating-point noise).  The evaluation plan is: shift the argument up by the
recurrence until its modulus reaches max(k, 1) — this keeps the quadratic
bounds applicable and kills any truncation floor — sum k series terms plus
the main terms there, then subtract the shift logs.  The plan (k, shift
count, winning bound) is made once, at the shifted argument the sum uses.
With neither ``k`` nor ``accuracy`` the target is the floating-point floor
that ``choose_k`` takes on its own walk.
Arguments left of the imaginary axis are reflected, not shifted:
``lngamma(z) = ln pi + s i pi - log z - L_s(z) - lngamma(-z)`` with
s = sign(Im z), where ``L_s(z) = -ln 2 + s i pi/2 - s i pi z +
log(1 - e^{2 pi i s z})`` is a log of ``sin(pi z)``; the plan and ``shifts``
are those of ``-z``.

Branch policy: all logs are principal.  Each piece of the reflected sum is
analytic in the open half-plane that holds z (``1 - e^{2 pi i s z}`` has a
positive real part there), so the sum is already the continuous branch that
is real on the positive axis: no 2-pi-i multiple is chosen, and reported
imaginary parts are never reduced mod 2 pi.
"""
from __future__ import annotations

import cmath
import math
from collections import namedtuple

from . import bernoulli as _bernoulli_mod
from .bounds import Target, _new, _quadratic_rung, best_bound
from .errors import AccuracyError, ConsistencyError, DomainError, ResourceLimitError
from .series import _ROWS, TINY, _row, partial_sum

__all__ = [
    "CertifiedValue",
    "TruncationPlan",
    "eval_lngamma",
    "eval_lngamma_half",
    "choose_k",
]

_LOG_2PI = math.log(2.0 * math.pi)
_HALF_LOG_2PI = 0.5 * _LOG_2PI
_LOG_PI = math.log(math.pi)
_LOG_2 = math.log(2.0)
#: Hard cap on series terms (Bernoulli index 2k stays under the table cap).
_K_CAP = _bernoulli_mod.MAX_INDEX // 2 - 1
#: How far above log eps the estimate of log bound_k must lie for
#: ``choose_k`` to skip k.
_SCREEN_MARGIN = 1e-6


class TruncationPlan(namedtuple(
    "TruncationPlan", "k shifts bound_kind truncation_bound"
)):
    """How a certified value was produced: terms ``k`` and ``shifts`` (int),
    winning bound ``bound_kind`` (BoundKind) and ``truncation_bound``
    (float)."""

    __slots__ = ()


class CertifiedValue(namedtuple(
    "CertifiedValue", "value radius plan flags", defaults=((),)
)):
    """Value and a radius guaranteed to contain the true function value:
    ``value`` (complex), ``radius`` (float), ``plan`` (TruncationPlan) and
    ``flags`` (tuple of str)."""

    __slots__ = ()


def _shift(z: complex, modulus: float) -> tuple[complex, int]:
    """Step ``z`` up by ones until ``|w| >= modulus``.  This ends within
    ``2 * modulus + 1`` steps: a walk starts only if Re(z) > -modulus, and
    ``|z + s| >= Re(z) + s``."""
    w = z
    steps = 0
    while abs(w) < modulus:
        w += 1.0
        steps += 1
    return w, steps


def _plan(z: complex, k: int, family: str) -> TruncationPlan:
    """Shift ``z`` (Re z >= 0) until ``|w| >= max(k, 1)`` and bound the
    remainder by the ladder's first rung at the very ``w`` the evaluation
    sums at."""
    w, shifts = _shift(z, float(k))
    return _new(TruncationPlan, (k, shifts) + _quadratic_rung(family, k, w))


def _main_terms(w: complex, logw: complex, family: str) -> complex:
    """The family's main terms at ``w``, given ``logw = log w``:
    ``(w - 1/2) log w - w + (1/2) log 2 pi`` for lngamma(w) and
    ``w log w - w + (1/2) log 2 pi`` for lngamma(w + 1/2)."""
    if family == "stirling":
        return (w - 0.5) * logw - w + _HALF_LOG_2PI
    return w * logw - w + _HALF_LOG_2PI


def _eval_right(z: complex, plan: TruncationPlan, family: str) -> CertifiedValue:
    """Shift-sum-subtract evaluation for Re(z) >= 0 along ``plan``.

    The fp charge is 2 ulp of the running magnitude (at least 1) per
    operation; a magnitude past the double range is not charged, and
    ``_certified`` refuses the value it belongs to."""
    fp, w, log_sum = 0.0, z, complex(0.0, 0.0)
    offset = 0.0 if family == "stirling" else 0.5
    log, ulp = cmath.log, math.ulp
    for _ in range(plan.shifts):
        lw = log(w + offset)
        log_sum += lw
        # One log, one add, plus the rounding of the shifted argument itself:
        # 2 operations at 4 ulp; these logs are finite.
        fp += 8 * ulp(max(abs(log_sum), abs(lw), 1.0))
        w += 1.0

    logw = cmath.log(w)
    main = _main_terms(w, logw, family)
    # hypot gives inf, where abs raises, if finite parts overflow the modulus
    main_modulus = math.hypot(main.real, main.imag)
    scale = max(main_modulus, abs(w) * abs(logw), 1.0)
    fp += 12 * math.ulp(scale) if scale < math.inf else 0.0

    terms = partial_sum(family, plan.k, w)
    value = main + terms - log_sum
    # k term additions plus assembly.  At |w| >= max(k, 1) the sum is off by
    # under 2k ulp of 1 (``partial_sum``), which the k-operation share of
    # this charge covers, since its scale is at least 1.
    modulus = math.hypot(value.real, value.imag)
    scale = max(modulus, main_modulus, 1.0)
    fp += (plan.k + 6) * 2 * math.ulp(scale) if scale < math.inf else 0.0
    return _certified(value, modulus, plan.truncation_bound + fp, plan, ())


def _reflect(z: complex, inner: CertifiedValue) -> CertifiedValue:
    """Assemble lngamma(z) for Re(z) < 0, Im(z) != 0, from lngamma(-z)."""
    s = 1.0 if z.imag > 0.0 else -1.0
    log_z = cmath.log(z)
    log_sin = _log_sin_pi(z)
    value = complex(_LOG_PI, s * math.pi) - log_z - log_sin - inner.value
    modulus = math.hypot(value.real, value.imag)
    scale = max(modulus, math.hypot(log_sin.real, log_sin.imag), math.pi * abs(z), 1.0)
    fp = 20 * math.ulp(scale) if scale < math.inf else 0.0  # 10 operations
    return _certified(value, modulus, inner.radius + fp, inner.plan, ("REFLECTED",))


def _certified(value: complex, modulus: float, radius: float, plan, flags) -> CertifiedValue:
    """The certified value, refused where its modulus (``hypot``) or radius
    overflowed: the fp charge skips infinite magnitudes."""
    if not (modulus < math.inf and math.isfinite(radius)):
        raise AccuracyError(
            f"lngamma overflows double precision here (value {value}, "
            f"radius {radius})"
        )
    return _new(CertifiedValue, (value, radius, plan, flags))


def _log_sin_pi(z: complex) -> complex:
    """A log of sin(pi z) analytic in the open half-plane of z, Im(z) != 0:
    ``-ln 2 + s i pi/2 - s i pi z + log(1 - e^{2 pi i s z})``, s = sign(Im z).

    With r = Re(z) - round(Re(z)) (exact) and a = 2 pi |Im z| the factor is
    ``(1 - e^{-a}) + 2 e^{-a} sin^2(pi r) - i s e^{-a} sin(2 pi r)``: no
    cancellation, so it keeps its relative accuracy next to the poles."""
    s = 1.0 if z.imag > 0.0 else -1.0
    r = z.real - round(z.real)
    y = abs(z.imag)
    if max(abs(r), y) < 2.0 ** -500:
        # Here 1 - e^{2 pi i s (r + i y)} = 2 pi (y - i s r) to far below an
        # ulp, and a subnormal r or y is not rounded again by a product.
        log_factor = _LOG_2PI + cmath.log(complex(y, -s * r))
    else:
        a = 2.0 * math.pi * y
        decay = math.exp(-a)
        sin_half = math.sin(math.pi * r)
        log_factor = cmath.log(complex(
            2.0 * decay * sin_half * sin_half - math.expm1(-a),
            -s * decay * math.sin(2.0 * math.pi * r),
        ))
    linear = complex(math.pi * y - _LOG_2, s * (0.5 * math.pi - math.pi * z.real))
    return linear + log_factor


def _fp_floor(z: complex, w: complex) -> float:
    """Conservative lower limit on any achievable radius at ``z``: the rounding
    noise of the assembled value alone, at the walk's first ``|w| >= 1``.
    That is 32 ulp of |main terms| + |z| + 1, taken as 64 ulp of half the sum
    so that the sum cannot overflow before its parts do."""
    main = (w - 0.5) * cmath.log(w) - w
    scale = 0.5 * math.hypot(main.real, main.imag) + 0.5 * abs(z) + 0.5
    return 64.0 * math.ulp(scale)


def _check_argument(z: complex) -> None:
    """Refuse a non-finite ``z`` or one whose modulus overflows, before any walk."""
    if not cmath.isfinite(z):
        raise DomainError(f"z must be finite, got z={z}")
    if math.isinf(math.hypot(z.real, z.imag)):
        raise AccuracyError("lngamma overflows double precision here (|z| overflows)")


def choose_k(z: complex, eps: float | None, context: str = "stirling") -> TruncationPlan:
    """Smallest k whose plan (shift, then bound) meets eps; ``eps=None``
    means the floating-point floor (``_fp_floor``).

    Upward scan under the shift rule |w_k| >= max(k, 1), screened in log
    space by log bound_k ~ L_k + 2 log k - (2k+1) log|w_k| (the rows' screen).
    A k is skipped only where that estimate exceeds log eps by
    ``_SCREEN_MARGIN``.  It lies within 1e-9 of the exact bound's log (4e-11
    measured), so a skipped k misses eps and the smallest k that meets eps
    is never skipped.  Every other k, a non-finite estimate or Re w_k < 0
    included, gets its exact bound: normally one per call.  Raises an
    accuracy error with the best achievable radius when eps is below the
    floating-point floor.  No eps at or above it exhausts the scan: at
    |w| >= k the remainder is under (k/|w|)^2/(pi^2 - 1) < 0.113 of the last
    term, so the bound at k = 8 is under 1e-16 < 32 ulp(1) <= floor.
    """
    _check_argument(z)
    if eps is not None and not (eps > 0.0):
        raise DomainError(f"target accuracy must be positive, got {eps!r}")
    if context not in ("stirling", "gauss"):
        raise DomainError(f"unknown truncation context {context!r}")
    w, shifts = _shift(z, 1.0)
    floor = _fp_floor(z, w)
    if eps is None:
        eps = floor
    elif not eps >= floor:
        raise _unattainable(eps, floor)
    limit = math.log(eps) + _SCREEN_MARGIN
    rows, inf, modulus = _ROWS[context], math.inf, abs(w)
    log_w, right = math.log(modulus), w.real >= 0.0
    for k in range(1, _K_CAP + 1):
        if modulus < k:
            while modulus < k:
                w += 1.0
                shifts += 1
                modulus = abs(w)
            log_w, right = math.log(modulus), w.real >= 0.0
        screen = rows[k][4] if k < len(rows) else _row(context, k)[4]
        if limit < screen - (2 * k + 1) * log_w < inf and right:
            continue
        if not right:  # best_bound refuses there
            best_bound(k, w, context, Target.R_KP1)
        kind, bound = _quadratic_rung(context, k, w)
        if bound <= eps:
            return _new(TruncationPlan, (k, shifts, kind, bound))
    raise ConsistencyError(f"internal: no k <= {_K_CAP} meets eps {eps:g} at z={z}")


def _unattainable(eps: float, floor: float) -> AccuracyError:
    message = f"target accuracy {eps:g} is unattainable (best achievable radius ~{floor:.3g})"
    return AccuracyError(message, best_radius=floor)


def _resolve_request(
    z: complex, family: str, k: int | None, accuracy: float | None
) -> TruncationPlan:
    if k is not None and accuracy is not None:
        raise DomainError("specify either a fixed term count or a target accuracy")
    if k is None:
        # choose_k checks z, and takes a missing accuracy as its floor
        return choose_k(z, accuracy, family)
    _check_argument(z)
    if type(k) is not int or k < 1:
        raise DomainError(f"term count must be a positive integer, got {k!r}")
    if k > _K_CAP:
        raise ResourceLimitError(
            f"term count {k} exceeds the Bernoulli-table cap ({_K_CAP})"
        )
    return _plan(z, k, family)


def eval_lngamma(
    z: complex, k: int | None = None, accuracy: float | None = None
) -> CertifiedValue:
    """Certified lngamma(z) anywhere off the cut (-inf, 0].

    Request either a fixed term count ``k`` or a target ``accuracy``;
    with neither, the target is the floating-point floor at z.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0:
        raise DomainError(f"lngamma is not defined on the cut (-inf, 0]: z={z}")
    if z.real < 0.0:
        # The target is halved (to TINY at least) for the inner evaluation,
        # so the reflection keeps headroom, and refused at twice its floor.
        half = max(accuracy / 2.0, TINY) if accuracy and accuracy > 0.0 else accuracy
        try:
            inner = eval_lngamma(-z, k, half)
        except AccuracyError as exc:
            if exc.best_radius is None:
                raise
            raise _unattainable(accuracy, 2.0 * exc.best_radius) from None
        return _reflect(z, inner)
    plan = _resolve_request(z, "stirling", k, accuracy)
    return _eval_right(z, plan, "stirling")


def eval_lngamma_half(
    z: complex, k: int | None = None, accuracy: float | None = None
) -> CertifiedValue:
    """Certified lngamma(z + 1/2) for z in the closed right half-plane."""
    z = complex(z)
    if z.real < 0.0:
        raise DomainError(
            f"the half-shifted evaluation requires Re(z) >= 0, got z={z}"
        )
    plan = _resolve_request(z, "gauss", k, accuracy)
    return _eval_right(z, plan, "gauss")
