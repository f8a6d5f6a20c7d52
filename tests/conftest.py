"""Shared test helpers: precision hygiene and a CLI harness.

Every test runs with the process-wide mpmath precision restored afterwards,
so a test that raises mid-``workdps`` (or sets ``mp.mp.dps`` directly) cannot
poison its neighbours.  The CLI harness drives ``cli.main`` in-process and
captures both streams, which keeps the full suite subprocess-free and fast.
``brackets_exact_product`` checks a bound's ``normalized * |T_k|`` against
the exact rational product, ``ChargeReference`` keeps the evaluators'
rounding-error charge in a separate accumulator, and ``fp_floor`` is the
floating-point floor that is the default lngamma target.
"""
from __future__ import annotations

import io
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import pytest

from gammatheta import cli, lngamma
from gammatheta.series import term_coefficient


@pytest.fixture(autouse=True)
def _restore_mp_precision():
    dps = mp.mp.dps
    yield
    mp.mp.dps = dps


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str

    @property
    def lines(self) -> list[str]:
        return [line for line in self.out.splitlines() if line]


def run_cli(*argv: str) -> CliResult:
    """Run the command-line entry point in-process and capture its streams."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return CliResult(code=code, out=out.getvalue(), err=err.getvalue())


@pytest.fixture
def cli_runner():
    return run_cli


def _dyadic(x: float) -> tuple[int, int]:
    """``(n, e)`` with ``|x| = n 2**e`` exactly and n odd (or zero)."""
    m, e = math.frexp(abs(x))
    n = int(m * 2**53)
    zeros = (n & -n).bit_length() - 1 if n else 0
    return n >> zeros, e - 53 + zeros


def _at_most(a: int, ea: int, b: int, eb: int) -> bool:
    """``a 2**ea <= b 2**eb`` for integers a, b >= 0."""
    e = min(ea, eb)
    return a << (ea - e) <= b << (eb - e)


def brackets_exact_product(
    value: float, normalized: float, family: str, k: int, argument: complex
) -> bool:
    """Whether ``value`` lies between the exact ``normalized * |c_k| / |z|**p``
    (p = 2k - 1, all from the double inputs) and (1 + 2**-30) times it, plus
    two steps of the smallest subnormal below the normal range.  ``inf``
    passes only where (1 + 2**-30) times the product passes the largest
    double.  Squares are compared in integers: ``|z|**(2p)`` is dyadic."""
    product = Fraction(normalized) * abs(term_coefficient(family, k))
    num, den = product.numerator ** 2, product.denominator ** 2
    parts = [_dyadic(argument.real), _dyadic(argument.imag)]
    e = min(ex for n, ex in parts if n)
    p = 2 * k - 1
    # |z|**(2p) = power 2**shift
    power, shift = sum(n * n << 2 * (ex - e) for n, ex in parts if n) ** p, 2 * e * p
    top = num * (2**30 + 1) ** 2  # (1 + 2**-30)**2 numerator**2, over 2**60
    if value == math.inf:
        m, ex = _dyadic(sys.float_info.max)
        return _at_most(m * m * power * den, 2 * ex + shift + 60, top, 0)
    m, ex = _dyadic(value)
    if not _at_most(num, 0, m * m * power * den, 2 * ex + shift):
        return False
    if value < sys.float_info.min:
        # two steps of 2**-1074 off the value
        low = min(ex, -1073)
        m, ex = (m << (ex - low)) - (1 << (-1073 - low)), low
        if m <= 0:
            return True
    return _at_most(m * m * power * den, 2 * ex + shift + 60, top, 0)


class ChargeReference:
    """The evaluators' rounding-error charge kept as an accumulator: ``ulps``
    ulp of max(|magnitude|, 1e-300) per operation, added in call order, and
    nothing for a non-finite magnitude."""

    def __init__(self) -> None:
        self.total = 0.0

    def charge(self, magnitude: float, ops: int, ulps: int = 2) -> None:
        mag = abs(magnitude)
        if mag < math.inf:
            self.total += ops * ulps * math.ulp(max(mag, 1e-300))


def fp_floor(z: complex) -> float:
    """The floating-point floor where the shift walk first reaches |w| >= 1:
    the target of a request with neither a term count nor an accuracy."""
    return lngamma._fp_floor(z, lngamma._shift(z, 1.0)[0])
