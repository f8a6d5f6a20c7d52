"""A speed reference that turns wall-clock times taken on a shared machine
into times at one fixed machine speed.

On a small VM that shares its host, the same pure-Python call can take 1.8
times as long from one half-minute to the next, and a third longer from one
tenth of a second to the next, while the process is never descheduled (its
CPU time grows with its wall time), so neither the wall time nor the CPU
time of a run repeats.  A fixed piece of reference work, timed every
``EVERY`` seconds through the window, slows down with it.  Each operation's
time is multiplied by the reference work's nominal time over its measured
time around the operation, which gives the time the operation would take
on a machine where the reference work takes its nominal time.

Contention does not slow every kind of code alike: interpreter-bound code
loses more than long big-integer arithmetic.  So each workload names the
reference work that does what its own operations mostly do: complex float
arithmetic in the interpreter, mpmath multi-precision arithmetic, or exact
``Fraction`` powers of a dyadic height.  The reference work uses only the
standard library and mpmath, never the package under test, so a faster
package moves the normalized times; it reads no mpmath cache that the
package could share.
"""
from __future__ import annotations

import bisect
import cmath
import contextlib
import gc
import signal
import statistics
import time
from fractions import Fraction

import mpmath as mp

#: Seconds of workload between two bursts.
EVERY = 0.05


def _complex_loop() -> complex:
    z, s = 1.5 + 0.7j, 0j
    for i in range(3000):
        s += cmath.log(z + i) / (z * z + i)
    return s


def _mpf_loop():
    with mp.workprec(120):
        x, s = mp.mpf(3) / 7, mp.mpf(0)
        for i in range(1, 60):
            s += mp.sqrt(x * i + 1) / (x + i)
        return s


_BIG = Fraction(3**600 + 1, 7**400 + 3)


def _fraction_loop() -> float:
    s = 0.0
    for j, t in enumerate((101.37, 133.91, 87.113, 120.07, 93.41, 141.7, 110.9, 79.33)):
        s += float(_BIG / Fraction(t) ** (161 + 2 * j))
    return s


#: kind -> (reference work, its nominal seconds).  The nominal time is the
#: work's median on the 2-core Intel Xeon VM the benchmark was built on
#: (Python 3.11.7, mpmath 1.3.0, pure-Python backend), rounded; it only
#: sets the scale of the normalized times.
KINDS = {
    "complex": (_complex_loop, 1.0e-3),
    "mpf": (_mpf_loop, 1.0e-3),
    "fraction": (_fraction_loop, 1.0e-3),
}


def burst(kind: str) -> float:
    """Run the reference work once with the collector paused, so that the
    size of the workload's heap does not enter; return its wall time."""
    work = KINDS[kind][0]
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factor(kind: str, bursts: list[float]) -> float:
    """Nominal over measured time of the reference work."""
    return KINDS[kind][1] / statistics.median(bursts)


class Speed:
    """Bursts of one kind of reference work, taken through a window.

    Bursts run either between operations, when ``due``, or from an
    interval timer inside ``ticking``, which also samples the speed during
    operations that last seconds.  ``clean`` maps a clock reading to the
    time elapsed outside bursts, so a burst inside an operation is not
    counted in its time.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.starts: list[float] = []
        self.bursts: list[float] = []
        #: total burst time before each burst
        self.before: list[float] = [0.0]
        self.last = -float("inf")
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # a timer tick inside a burst
            return
        self._busy = True
        start = time.perf_counter()
        d = burst(self.kind)
        self.starts.append(start)
        self.bursts.append(d)
        self.before.append(self.before[-1] + d)
        self.last = time.perf_counter()
        self._busy = False

    def due(self, now: float) -> bool:
        return now - self.last >= EVERY

    @contextlib.contextmanager
    def ticking(self, on: bool = True):
        """Take a burst every ``EVERY`` seconds of wall time while inside."""
        if not on:
            yield
            return
        old = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, EVERY, EVERY)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)

    def clean(self, t: float) -> float:
        """Clock reading ``t`` less the burst time before it."""
        return t - self.before[bisect.bisect_left(self.starts, t)]

    def factor_at(self, t0: float, t1: float) -> float:
        """Factor for an operation over ``[t0, t1]``: from the bursts inside
        it and within ``EVERY`` of it, at least two.  The machine's speed
        can change by a third from one tenth of a second to the next, so
        the bursts are taken as near the operation as they come."""
        lo = bisect.bisect_left(self.starts, t0 - EVERY)
        hi = bisect.bisect_right(self.starts, t1 + EVERY)
        while hi - lo < 2 and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        return factor(self.kind, self.bursts[lo:hi])
