"""Certified double-precision evaluation of the Riemann-Siegel theta
function, in three variants.

All variants share the main terms ``(t/2) log(t/(2 pi e)) - pi/8`` and the
first ``k`` series terms.  They differ in the exponentially small
corrections:

* ``STANDARD`` omits the arctan correction; its radius must therefore carry
  an extra ``e^(-pi t)/2``.
* ``ARCTAN`` includes ``arctan(e^(-pi t))/2``; at the least-term index the
  attainable accuracy improves to the ``e^(-2 pi t)`` scale.
* ``EMPIRICAL`` further adds ``(pi t - k_min + 1/12) * T_min`` — an
  empirically fitted correction with no proven bound.  Its certified radius
  deliberately equals the ARCTAN radius (the improvement is advisory only,
  reported in ``advisory_correction``); the 1/12 is
  ``series.EMPIRICAL_CONSTANT``.

Negative ``t`` reduces by oddness before any series work; ``t = 0`` is the
exact special case: value 0, radius 0.
"""
from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

from .bounds import Target, best_bound
from .errors import AccuracyError, DomainError
from .fputil import up
from .series import EMPIRICAL_CONSTANT, TINY, k_min, partial_sum

__all__ = [
    "ThetaVariant",
    "ThetaResult",
    "eval_theta",
    "arctan_term",
]

_LOG_2PI = math.log(2.0 * math.pi)
_PI_OVER_8 = math.pi / 8.0
#: largest argument for which exp(-pi*t) is a nonzero double
_EXP_UNDERFLOW_T = 745.0 / math.pi


class ThetaVariant(str, Enum):
    STANDARD = "standard"
    ARCTAN = "arctan"
    EMPIRICAL = "empirical"


#: Each variant by its value, and so by itself (a member hashes as its value).
_VARIANTS = {variant.value: variant for variant in ThetaVariant}


class ThetaResult(namedtuple(
    "ThetaResult",
    "t value radius k_used variant bound_kind flags advisory_correction",
    defaults=(None, (), None),
)):
    """Certified theta value: ``t``, ``value`` and ``radius`` (float),
    ``k_used`` (int), ``variant`` (ThetaVariant), ``bound_kind`` (BoundKind
    or None), ``flags`` (tuple of str) and ``advisory_correction``, the value
    of the empirical correction term (float, EMPIRICAL variant only)."""

    __slots__ = ()


def arctan_term(t: float) -> float:
    """``arctan(e^(-pi t)) / 2``; in (0, pi/8] for t >= 0, approaching
    pi/4 as t -> -inf."""
    t = float(t)
    try:
        a = math.exp(-math.pi * t)
    except OverflowError:
        return 0.25 * math.pi
    return 0.5 * math.atan(a)


def _overflow(k_used: int, t: float, value: float, radius: float) -> AccuracyError:
    return AccuracyError(
        f"theta with {k_used} terms overflows double precision at t={t!r} "
        f"(value {value}, radius {radius})"
    )


def eval_theta(
    t: float,
    k: int | str | None = "auto",
    variant: ThetaVariant = ThetaVariant.ARCTAN,
) -> ThetaResult:
    """Certified theta value at ``t``; ``k='auto'`` uses the least-term index.

    For t in (0, ~0.24] the series terms grow from the start, so auto mode
    uses k = 1 with the theta gamma-ratio bound — a documented low-accuracy
    regime.  A value or radius that overflows raises ``AccuracyError``.
    """
    t = float(t)
    try:
        variant = _VARIANTS[variant]
    except (KeyError, TypeError):
        raise DomainError(f"unknown theta variant {variant!r}") from None
    auto = k is None or k == "auto"
    if not auto and (type(k) is not int or k < 1):
        raise DomainError(f"term count must be a positive integer or 'auto', got {k!r}")
    if t == 0.0:
        return ThetaResult(
            t=0.0, value=0.0, radius=0.0, k_used=1, variant=variant,
            flags=("EXACT_ZERO",),
        )
    if t < 0.0:
        pos = eval_theta(-t, k, variant)
        advisory = (
            -pos.advisory_correction if pos.advisory_correction is not None else None
        )
        return pos._replace(t=t, value=-pos.value, advisory_correction=advisory)
    if math.isinf(t) or math.isnan(t):
        raise DomainError(f"t must be finite, got {t!r}")

    # one least-term scan serves both auto mode and the empirical correction
    report = k_min(t) if auto or variant is ThetaVariant.EMPIRICAL else None
    k_used = report.k_min if auto else k
    flags: list[str] = []

    main = 0.5 * t * (math.log(t) - _LOG_2PI - 1.0)
    value = main - _PI_OVER_8
    value += partial_sum("theta", k_used, t)
    if value == math.inf:
        # The terms are positive and grow past the double range, and so does
        # every bound after them: refuse before one is built.
        raise _overflow(k_used, t, value, math.inf)
    # fp charge: 2 ulp of the running magnitude per operation, 4 for the main
    # terms and k + 4 for the sum; past the refusal every magnitude is finite
    fp = 8 * math.ulp(max(abs(main), t, 1.0))
    fp += (k_used + 4) * 2 * math.ulp(max(abs(value), 1.0))

    # the bound of what the value omits: e^(-pi t)/2, or TINY past its underflow
    if t > _EXP_UNDERFLOW_T:
        omitted = TINY
        flags.append("UNDERFLOW_FOLDED")
    elif variant is ThetaVariant.STANDARD:
        omitted = up(0.5 * math.exp(-math.pi * t), 2)
    else:
        omitted = 0.0
        value += arctan_term(t)
        fp += 4 * math.ulp(max(abs(value), 1.0))

    advisory = None
    if variant is ThetaVariant.EMPIRICAL:
        advisory = (
            math.pi * t - report.k_min + float(EMPIRICAL_CONSTANT)
        ) * report.t_min
        value += advisory
        fp += 6 * math.ulp(max(abs(value), 1.0))

    bound = best_bound(k_used, t, "theta", Target.R_KP1)
    radius = bound.value + fp + omitted
    if not (math.isfinite(value) and math.isfinite(radius)):
        # a value or bound past the double range: nothing would be certified
        raise _overflow(k_used, t, value, radius)

    fields = (t, value, radius, k_used, variant, bound.kind, tuple(flags), advisory)
    return tuple.__new__(ThetaResult, fields)  # not the namedtuple's Python-level __new__
