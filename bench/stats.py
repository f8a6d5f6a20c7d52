"""Summary statistics, output digests and the machine fingerprint."""
from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import sys

#: Candidate tail percentiles, highest first: p99.9, p99 and p90 as the
#: rule names them, then p75 for windows too short for p90.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)
MIN_BEYOND = 10


def percentile(sorted_values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    n = len(sorted_values)
    rank = max(1, math.ceil(round(p * n / 100.0, 9)))  # 99.9% of 10000 is 9990
    return sorted_values[rank - 1], n - rank


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): the highest candidate percentile
    with at least ``MIN_BEYOND`` samples beyond it, else the maximum."""
    ordered = sorted(values)
    for p in TAIL_PERCENTILES:
        value, beyond = percentile(ordered, p)
        if beyond >= MIN_BEYOND:
            return p, value, beyond
    return 100.0, ordered[-1], 0


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _value_bits(value) -> tuple:
    if isinstance(value, complex):
        return (value.real.hex(), value.imag.hex())
    if isinstance(value, float):
        return (value.hex(),)
    if isinstance(value, tuple):
        return tuple(_value_bits(v) for v in value)
    return (repr(value),)


def output_digests(outcomes: list) -> dict[str, str]:
    """One digest of the structural fields (k used, shifts, bound kind,
    flags, or the error type) and one of the value and radius bits."""
    shape = digest((o.error, o.shape) for o in outcomes)
    bits = digest(
        (o.error,) if o.error else (_value_bits(o.value), _value_bits(o.radius))
        for o in outcomes
    )
    return {"shape": shape, "value_bits": bits, "ops": len(outcomes)}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint() -> dict:
    import mpmath

    try:
        load = os.getloadavg()
    except OSError:
        load = None
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "loadavg_at_start": load,
    }
