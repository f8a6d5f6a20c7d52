"""mpmath-only reference checks of benchmark outcomes, run outside the
timed window.

Fast-path and CLI values are compared with ``mpmath.loggamma`` and
``mpmath.siegeltheta`` at 40 digits; oracle values with remainders rebuilt
from ``mpmath.loggamma``, ``mpmath.siegeltheta`` and mpmath's own Bernoulli
numbers, at the requested digits plus guard digits and the cancellation.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath as mp

from workloads import TYPED_ERRORS, Outcome

#: Digits at which fast-path and CLI values are compared with mpmath.
REFERENCE_DPS = 40


@dataclass(frozen=True)
class Check:
    """Verdict on one distinct op."""

    #: "contained", "violation", "known-defect", "refused" or "broken"
    verdict: str
    #: -log10(radius / (|value| + 1)) for results, else None
    radius_digits: float | None = None


def known_defect(op: tuple) -> str | None:
    """Documented defect classes whose containment violations are counted
    but do not fail the run: the reflection path near the negative-integer
    poles, where sin(pi z) is formed from a rounded pi*z."""
    if op[0] == "cli":
        op = op[1]
    if op[0] == "lngamma" and not op[2]:
        z = op[1]
        if z.real < 0.0 and abs(z - round(z.real)) <= 1e-3:
            return "near-pole-reflection"
    return None


def _series_coeff(family: str, j: int):
    """Coefficient of 1/z^(2j-1): B_2j/(2j(2j-1)), times -(1-2^(1-2j)) for
    the half-shifted family, from mpmath's own Bernoulli numbers."""
    c = mp.bernoulli(2 * j) / (2 * j * (2 * j - 1))
    if family == "gauss":
        c = -(1 - mp.mpf(2) ** (1 - 2 * j)) * c
    return c


def _main_terms(family: str, z):
    logz = mp.log(z)
    head = (z - mp.mpf(0.5)) * logz if family == "stirling" else z * logz
    return head - z + mp.log(2 * mp.pi) / 2


def reference_remainder(z: complex, k: int, family: str, digits: int):
    """loggamma minus main terms minus k series terms, at enough digits to
    absorb the cancellation."""
    with mp.workdps(20):
        zz = mp.mpc(z)
        size = abs(_main_terms(family, zz)) + abs(_series_coeff(family, 1) / zz) + 2
        tk = abs(_series_coeff(family, k)) / abs(zz) ** (2 * k - 1)
        loss = max(0, int(mp.ceil(mp.log10(size) - mp.log10(tk))))
    with mp.workdps(digits + 20 + loss):
        zz = mp.mpc(z)
        arg = zz if family == "stirling" else zz + mp.mpf(0.5)
        r = mp.loggamma(arg) - _main_terms(family, zz)
        for j in range(1, k + 1):
            r -= _series_coeff(family, j) / zz ** (2 * j - 1)
        return r


def reference_theta_row(t: float, k: int, digits: int):
    """(remainder, series value) of the theta expansion after k terms,
    with the arctan correction in the series value."""
    with mp.workdps(digits + 20):
        tt = mp.mpf(t)
        series = tt / 2 * (mp.log(tt / (2 * mp.pi)) - 1) - mp.pi / 8
        for j in range(1, k + 1):
            series += abs(_series_coeff("gauss", j)) / (2 * tt ** (2 * j - 1))
        series += mp.atan(mp.exp(-mp.pi * tt)) / 2
        return mp.siegeltheta(tt) - series, series


def _within(value, ref, radius) -> bool:
    return abs(mp.mpmathify(value) - ref) <= radius


def _digits(radius: float, value) -> float | None:
    if not radius > 0.0:
        return None
    return -math.log10(radius / (float(abs(value)) + 1.0))


def check(op: tuple, out: Outcome) -> Check:
    if out.error is not None:
        return Check("refused" if out.error in TYPED_ERRORS else "broken")
    inner = op[1] if op[0] == "cli" else op
    kind = inner[0]
    if kind in ("lngamma", "theta"):
        if not (math.isfinite(out.radius) and out.radius >= 0.0 and cmath.isfinite(out.value)):
            return Check("broken")
        with mp.workdps(REFERENCE_DPS):
            if kind == "theta":
                ref = mp.siegeltheta(mp.mpf(inner[1]))
            else:
                arg = mp.mpc(inner[1]) + (mp.mpf(0.5) if inner[2] else 0)
                ref = mp.loggamma(arg)
            ok = _within(out.value, ref, mp.mpf(out.radius))
        digits = _digits(out.radius, out.value)
    elif kind == "rem":
        _, z, k, family, d = inner
        ref = reference_remainder(z, k, family, d)
        radius = 10.0 ** (1 - d) * float(abs(out.value))
        with mp.workdps(d + 20):
            ok = _within(out.value, ref, mp.mpf(radius))
        digits = _digits(radius, out.value)
    else:
        _, t, k, d = inner
        ref_rem, ref_series = reference_theta_row(t, k, d)
        rem, series = out.value
        radius = 10.0 ** (1 - d) * float(abs(rem))
        with mp.workdps(d + 20):
            ok = _within(rem, ref_rem, mp.mpf(radius)) and _within(
                series, ref_series, 10 ** mp.mpf(1 - d) * (abs(ref_series) + 1)
            )
        digits = _digits(radius, rem)
    if ok:
        return Check("contained", digits)
    return Check("known-defect" if known_defect(op) else "violation", digits)
