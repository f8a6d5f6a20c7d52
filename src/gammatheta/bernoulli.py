"""Exact Bernoulli numbers and the coefficients of Bernoulli polynomials.

The numbers are exact, over integers and ``fractions.Fraction``.  The
even Bernoulli numbers come from the tangent numbers by the integer
recurrence of Brent and Harvey ("Fast computation of Bernoulli, tangent and
secant numbers", 2013), so they need no multiprecision floats.  A polynomial
has one form, the half-argument coefficients of ``B_j(1/2 + y)``, a
polynomial in ``y^2``, on one denominator.  This module holds no mpmath
code: the oracle (``gammatheta.oracle``) evaluates ``B_j({u})`` from these
coefficients by exact integer Horner, rounded once, and its quadrature
kernel floors them to fixed point.
Conventions:

* ``bernoulli_number(j)`` takes the *even* index ``j`` and returns ``B_j``,
  so ``bernoulli_number(2) = 1/6`` and ``bernoulli_number(4) = -1/30``.
* ``bernoulli_half(j)`` returns ``B_j(1/2) = -(1 - 2^(1-j)) * B_j`` exactly.

The even Bernoulli numbers, and each polynomial's coefficients in one
form, are cached in a grow-on-demand table of exact values with a hard
index cap.  It grows one index at a time, at O(n) per index, under its
own lock, so the table is safe to share between threads.
"""
from __future__ import annotations

import math
import threading
from fractions import Fraction

from .errors import DomainError, ResourceLimitError

__all__ = [
    "MAX_INDEX",
    "BernoulliTable",
    "bernoulli_number",
    "bernoulli_half",
    "shared_table",
]

#: Hard cap on the Bernoulli index (the ``j`` of ``B_j``).  Supported
#: computations reach it: auto-mode theta scans to index 2000 at t ~ 318
#: (``k_min`` is 944 at t = 300), an explicit lngamma ``k`` up to
#: ``lngamma._K_CAP`` = 999 needs index 1998, and the oracle's series tails
#: run to index 2000.  Past it a term count is a runaway and is refused;
#: at it the table's last column holds about 1.9 MB of integers.
MAX_INDEX = 2000


def _tangent_step(column: list[int]) -> int:
    """Extend Brent and Harvey's tangent-number recurrence from index j to
    j+1, in place, in O(j) multiply-adds; return ``T_(j+1)`` (1, 2, 16, ...).

    ``column`` holds index j's value after each pass, ``T_j`` last, and
    becomes index j+1's: pass 1 is ``j column[0]``, pass k is
    ``v = (j+1-k) column[k-1] + (j+3-k) v``, and the last doubles."""
    j = len(column)
    v = column[0] = j * column[0]
    for i in range(1, j):
        v = column[i] = (j - i) * column[i] + (j + 2 - i) * v
    column.append(2 * v)
    return column[-1]


class BernoulliTable:
    """Grow-on-demand cache of even-index Bernoulli numbers.

    ``_even[m]`` holds ``B_{2m}`` (``_even[0] = 1``); ``B_{2m}(1/2)`` is
    derived from it.  Odd-index numbers beyond ``B_1 = -1/2`` vanish and
    are not stored.  A polynomial is cached in one form only,
    ``half_numerators``: the coefficients of ``B_j(1/2 + y)`` on one
    denominator.  Growth to ``B_{2m}`` extends the tangent recurrence
    (:func:`_tangent_step`) index by index, from the last column it kept,
    to exactly m, and sets ``B_{2m} = (-1)^(m-1) 2m T_m / (4^m (4^m - 1))``.
    Reads of already-grown entries take no lock (list reads are atomic);
    growth is serialized by the table's own lock.
    """

    def __init__(self) -> None:
        self._even: list[Fraction] = [Fraction(1), Fraction(1, 6)]  # B_0, B_2
        self._column: list[int] | None = [1]  # index 1's column: T_1 = 1
        self._half_numerators: dict[int, tuple[tuple[int, ...], int]] = {}
        self._lock = threading.Lock()

    # -- numbers ---------------------------------------------------------

    def _check_index(self, j: int) -> None:
        if type(j) is not int or j % 2 != 0 or j < 2:
            raise DomainError(f"Bernoulli index must be an even int >= 2, got {j!r}")
        if j > MAX_INDEX:
            raise ResourceLimitError(
                f"Bernoulli index {j} exceeds the hard cap {MAX_INDEX}"
            )

    def _grow(self, upto_m: int) -> None:
        """Cache B_{2m} for all m <= upto_m, one index at a time; a column
        an exception took out mid-step is rebuilt from T_1 first."""
        with self._lock:
            evens, column, self._column = self._even, self._column, None
            if column is None:
                column = [1]
                while len(column) < len(evens) - 1:
                    _tangent_step(column)
            for m in range(len(evens), upto_m + 1):
                q = 1 << (2 * m)
                b = Fraction(2 * m * _tangent_step(column), q * (q - 1))
                evens.append(b if m % 2 else -b)
            self._column = column

    def number(self, j: int) -> Fraction:
        """Exact ``B_j`` for even ``j >= 2``."""
        self._check_index(j)
        m = j // 2
        if m >= len(self._even):
            self._grow(m)
        return self._even[m]

    def half(self, j: int) -> Fraction:
        """Exact ``B_j(1/2) = -(1 - 2^(1-j)) B_j`` for even ``j >= 2``."""
        return self.number(j) * (Fraction(1, 1 << (j - 1)) - 1)

    # -- polynomials -----------------------------------------------------

    def half_numerators(self, j: int) -> tuple[tuple[int, ...], int]:
        """Exact coefficients of ``B_j(1/2 + y)`` as a polynomial in ``y^2``,
        highest power first, ``(1, C(j,2) B_2(1/2), ..., B_j(1/2))``, on one
        denominator: ``(a, d)`` with the i-th coefficient ``a[i] / d``, d
        the least common denominator.

        ``B_j(1/2 + y) = sum_i C(j,i) B_i(1/2) y^(j-i)`` and ``B_i(1/2)``
        vanishes for odd ``i``.  Cached per degree.
        """
        self._check_index(j)
        cached = self._half_numerators.get(j)
        if cached is None:
            coeffs = [Fraction(1)] + [
                math.comb(j, i) * self.half(i) for i in range(2, j + 1, 2)
            ]
            den = math.lcm(*(c.denominator for c in coeffs))
            cached = tuple(c.numerator * (den // c.denominator) for c in coeffs), den
            with self._lock:
                self._half_numerators[j] = cached
        return cached


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
