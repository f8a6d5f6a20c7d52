"""Exact Bernoulli numbers, Bernoulli polynomials, and periodic extensions.

All coefficient arithmetic is exact over ``fractions.Fraction``; floating
point enters only in the final rounding of a polynomial or zeta evaluation.
Conventions:

* ``bernoulli_number(j)`` takes the *even* index ``j`` and returns ``B_j``,
  so ``bernoulli_number(2) = 1/6`` and ``bernoulli_number(4) = -1/30``.
* ``bernoulli_half(j)`` returns ``B_j(1/2) = -(1 - 2^(1-j)) * B_j`` exactly.
* ``periodic_bernoulli(j, u)`` evaluates ``B_j({u})`` with ``{u}`` the
  fractional part, the kernel of the remainder integrals of the asymptotic
  expansions.

Values are cached in a grow-on-demand table of exact rationals with a hard
index cap; growth is serialized by a lock so the table is safe to share
between threads.
"""
from __future__ import annotations

import math
import threading
from fractions import Fraction

from mpmath import mp, mpf

from .errors import AccuracyError, DomainError, ResourceLimitError

__all__ = [
    "MAX_INDEX",
    "BernoulliTable",
    "bernoulli_number",
    "bernoulli_half",
    "bernoulli_poly",
    "periodic_bernoulli",
    "half_shift_identity_check",
    "recurrence_identity_check",
    "zeta_even",
    "shared_table",
]

#: Hard cap on the Bernoulli index (the ``j`` of ``B_j``).  The largest index
#: any supported computation needs is about 750; the cap leaves headroom
#: while still catching runaway term counts.
MAX_INDEX = 2000


class BernoulliTable:
    """Grow-on-demand cache of even-index Bernoulli numbers.

    ``values[m]`` holds ``B_{2m}`` (``values[0] = 1``); ``half_values[m]``
    holds ``B_{2m}(1/2)``.  Odd-index numbers beyond ``B_1 = -1/2`` vanish
    and are not stored.  Growth delegates to ``mpmath.bernfrac``, which is
    exact (von Staudt-Clausen denominator, zeta-series numerator) and far
    faster than the classical convolution recurrence; that recurrence is
    kept in :func:`recurrence_identity_check` as an independent witness.
    Reads of already-grown entries take no lock (list reads are atomic);
    growth is serialized.
    """

    def __init__(self) -> None:
        self._even: list[Fraction] = [Fraction(1)]  # B_0
        self._half: list[Fraction] = [Fraction(1)]  # B_0(1/2) unused sentinel
        self._poly_coeffs: dict[int, tuple[Fraction, ...]] = {}
        self._lock = threading.Lock()

    # -- numbers ---------------------------------------------------------

    def _check_index(self, j: int) -> None:
        if j % 2 != 0 or j < 2:
            raise DomainError(f"Bernoulli index must be even and >= 2, got {j}")
        if j > MAX_INDEX:
            raise ResourceLimitError(
                f"Bernoulli index {j} exceeds the hard cap {MAX_INDEX}"
            )

    def _grow(self, upto_m: int) -> None:
        """Ensure B_{2m} is cached for all m <= upto_m."""
        with self._lock:
            evens = self._even
            for m in range(len(evens), upto_m + 1):
                p, q = mp.bernfrac(2 * m)
                evens.append(Fraction(int(p), int(q)))
            # keep the half-value cache aligned
            half = self._half
            for m in range(len(half), len(evens)):
                scale = Fraction(1) - Fraction(1, 2 ** (2 * m - 1))
                half.append(-scale * evens[m])

    def number(self, j: int) -> Fraction:
        """Exact ``B_j`` for even ``j >= 2``."""
        self._check_index(j)
        m = j // 2
        if m >= len(self._even):
            self._grow(m)
        return self._even[m]

    def half(self, j: int) -> Fraction:
        """Exact ``B_j(1/2)`` for even ``j >= 2``."""
        self._check_index(j)
        m = j // 2
        if m >= len(self._half):
            self._grow(m)
        return self._half[m]

    # -- polynomials -----------------------------------------------------

    def poly_coefficients(self, j: int) -> tuple[Fraction, ...]:
        """Exact coefficients of ``B_j(x)``, highest power first.

        ``B_j(x) = sum_i C(j,i) B_i x^(j-i)``; the only odd contribution is
        ``i = 1``.  Cached per degree.
        """
        self._check_index(j)
        cached = self._poly_coeffs.get(j)
        if cached is not None:
            return cached
        coeffs = [Fraction(0)] * (j + 1)
        coeffs[0] = Fraction(1)  # x^j
        coeffs[1] = Fraction(-j, 2)  # C(j,1) * B_1 * x^(j-1)
        for i in range(2, j + 1, 2):
            coeffs[i] = math.comb(j, i) * self.number(i)
        result = tuple(coeffs)
        with self._lock:
            self._poly_coeffs[j] = result
        return result


_SHARED = BernoulliTable()


def shared_table() -> BernoulliTable:
    """The process-wide table instance used by the module-level functions."""
    return _SHARED


def bernoulli_number(j: int) -> Fraction:
    """Exact Bernoulli number ``B_j`` for even ``j`` (``B_2 = 1/6``)."""
    return _SHARED.number(j)


def bernoulli_half(j: int) -> Fraction:
    """Exact ``B_j(1/2) = -(1 - 2^(1-j)) B_j`` for even ``j``."""
    return _SHARED.half(j)


def _poly_eval(j: int, u: mpf) -> mpf:
    """Horner evaluation of B_j at ``u`` in [0,1], cancellation-compensated.

    Coefficients are exact, so rounding inside the Horner recursion is the
    only error source.  Each step is benign relative to the running
    magnitude, but the final value can sit far below the peak intermediate
    (near u = 1/4 the even polynomials shrink by ~4^(j/2) relative to their
    coefficient scale), so every pass measures the realized cancellation and
    reruns with that many guard digits when the current guard is too small.
    Dyadic arguments are never zeros of these polynomials, so the retries
    terminate; the final rounding is then faithful to working precision.
    """
    coeffs = _SHARED.poly_coefficients(j)
    guard = 10
    for _ in range(12):
        with mp.workdps(mp.dps + guard):
            x = mpf(u)
            acc = mpf(0)
            peak = mpf(0)
            for c in coeffs:
                acc = acc * x + mpf(c.numerator) / c.denominator
                mag = abs(acc)
                if mag > peak:
                    peak = mag
            # digits destroyed by cancellation; acc == 0 means pure noise
            lost = None if acc == 0 else int(mp.ceil(mp.log10(peak / abs(acc))))
        if lost is not None and lost + 5 <= guard:
            return +acc
        # a noisy pass only lower-bounds the true cancellation, so grow
        # geometrically; a clean measurement needs just one more pass
        guard = max((lost or 0) + 10, 2 * guard)
    raise AccuracyError(
        f"evaluating B_{j} at u={u} lost more than {guard} digits to "
        f"cancellation"
    )


def bernoulli_poly(j: int, u) -> mpf:
    """``B_j(u)`` for even ``j`` and ``0 <= u <= 1`` at working precision.

    Exact rational coefficients, Horner evaluation, one final rounding.
    """
    _SHARED._check_index(j)
    u = mpf(u)
    if u < 0 or u > 1:
        raise DomainError(f"bernoulli_poly argument must lie in [0,1], got {u}")
    return _poly_eval(j, u)


def periodic_bernoulli(j: int, u) -> mpf:
    """``B_j({u})`` with ``{u} = u - floor(u)``, for any finite real ``u``.

    The floor of an arbitrary-precision binary float is exact, so arguments
    near integer boundaries never land in the wrong unit interval.
    """
    u = mpf(u)
    if not mp.isfinite(u):
        raise DomainError(f"periodic_bernoulli argument must be finite, got {u}")
    frac = u - mp.floor(u)
    if frac >= 1:  # can only happen for u just below an integer rounding up
        frac = mpf(0)
    return bernoulli_poly(j, frac)


def half_shift_identity_check(k: int, u, digits: int | None = None) -> bool:
    """Self-test of the polynomial layer via the half-argument identity

        2^(1-2k) B_{2k}({2u}) - B_{2k}({u}) = B_{2k}({u+1/2})

    for any real ``u``.  Returns whether the residual is below
    ``10^(5-digits)`` relative to the magnitude of the values involved
    (the values themselves grow like |B_{2k}|, so a purely absolute test
    would be vacuous for large k).
    """
    if k < 1:
        raise DomainError(f"half_shift_identity_check needs k >= 1, got {k}")
    if digits is None:
        digits = mp.dps
    magnitude = abs(bernoulli_number(2 * k))
    extra = max(0, int(mp.log10(magnitude)) + 1) if magnitude > 1 else 0
    with mp.workdps(digits + 15 + extra):
        uu = mpf(u)
        lhs = periodic_bernoulli(2 * k, 2 * uu) / 2 ** (2 * k - 1)
        lhs -= periodic_bernoulli(2 * k, uu)
        rhs = periodic_bernoulli(2 * k, uu + mpf(1) / 2)
        scale = max(mpf(1), abs(lhs), abs(rhs))
        return bool(abs(lhs - rhs) < scale * mpf(10) ** (5 - digits))


def recurrence_identity_check(upto_m: int) -> bool:
    """Self-test of the number table against the classical binomial
    convolution

        B_m = -1/(m+1) * [ C(m+1,1)*B_1 + sum_{i even < m} C(m+1,i)*B_i ],

    evaluated over exact rationals, independently of how the table entries
    were produced.  Returns whether ``B_2 .. B_{2 upto_m}`` all agree.
    """
    if upto_m < 1:
        raise DomainError(f"recurrence check needs upto_m >= 1, got {upto_m}")
    evens = [Fraction(1)]
    for m2 in range(2, 2 * upto_m + 1, 2):
        acc = Fraction(-(m2 + 1), 2)  # C(m2+1, 1) * B_1
        for i, known in enumerate(evens):
            acc += math.comb(m2 + 1, 2 * i) * known
        value = -acc / (m2 + 1)
        if value != bernoulli_number(m2):
            return False
        evens.append(value)
    return True


def zeta_even(k: int, digits: int) -> mpf:
    """``zeta(2k)`` to ``digits`` digits from the exact Bernoulli number.

    Uses ``|B_{2k}| = 2 (2k)! zeta(2k) / (2 pi)^{2k}`` rearranged; the only
    rounding is in ``pi`` and the final division.
    """
    if k < 1:
        raise DomainError(f"zeta_even needs k >= 1, got {k}")
    b = abs(bernoulli_number(2 * k))
    with mp.workdps(digits + 15):
        num = mpf(b.numerator) / b.denominator * (2 * mp.pi) ** (2 * k)
        den = 2 * mp.factorial(2 * k)
        value = num / den
    with mp.workdps(digits):
        return +value
