"""Seeded input generators for the four benchmark workloads, and the
runner that sends their operations to the package.

The seed moves inputs; it should not move the cost mix, or every timing
would spread with the seed.  So each generator fixes the shape of its mix
and lets the seed place points inside it:

* certify-mixed and cli-records draw randomized quasi-Monte Carlo points:
  the k-th op of a kind takes the k-th radical-inverse (van der Corput)
  value in one prime base per parameter, rotated by a shift drawn from the
  seed, so any prefix covers each parameter range evenly;
* theta-high and oracle-remainder repeat a short pass of fixed strata or
  cells, and the seed jitters each op's point inside its cell.

The package under test is reached only through the module object handed in
(``gt`` below), never through names imported here, so a traced run that
rebinds the package's public names sees every call.
"""
from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass

PRIMES = (2, 3, 5, 7, 11, 13)
VARIANTS = ("standard", "arctan", "empirical")
TYPED_ERRORS = ("DomainError", "AccuracyError", "ResourceLimitError", "ConsistencyError")

#: The containment grid of the remainder bounds (right half-plane points).
GRID = tuple(
    complex(re, im) for re in (0.0, 0.5, 1.0, 5.0) for im in (0.1, 1.0, 10.0, 40.0)
) + (1.0 + 0j, 5.0 + 0j, 25.0 + 0j)


def radical_inverse(i: int, base: int) -> float:
    """The i-th van der Corput value in ``base``, in [0, 1)."""
    f, r = 1.0, 0.0
    while i:
        f /= base
        r += f * (i % base)
        i //= base
    return r


class Sequence:
    """Cranley-Patterson rotated van der Corput points, one counter per kind."""

    def __init__(self, rng: random.Random, kinds: tuple[str, ...]):
        self._shift = {kind: [rng.random() for _ in PRIMES] for kind in kinds}
        self._count = dict.fromkeys(kinds, 0)

    def point(self, kind: str) -> list[float]:
        i = self._count[kind]
        self._count[kind] = i + 1
        return [
            (radical_inverse(i, base) + s) % 1.0
            for base, s in zip(PRIMES, self._shift[kind])
        ]


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return 10.0 ** (math.log10(lo) + (math.log10(hi) - math.log10(lo)) * u)


# ---------------------------------------------------------------------------
# generators: op tuples only, the program under test is never consulted
# ---------------------------------------------------------------------------

#: Largest |z| sent to the reflection side (Re z < 0).  The reflection path
#: pins its 2-pi-i multiple by walking Re z up to 1 one unit at a time, so a
#: call costs time linear in |Re z|: about 30 ms at 1e5, 0.5 s at 1.6e6 and
#: hours at 1e12.  Up to this cap the cost stays in the latency tail, where a
#: fix shows, without stalling the run.
REFLECTED_MAX_ABS = 1e5

#: certify-mixed slot pattern: 3/4 lngamma family, 1/4 theta.
MIXED_SLOTS = ("lngamma", "half", "lngamma", "theta", "lngamma", "half", "pole", "theta")


def _lngamma_mode(u: float, v: float, z: complex) -> tuple[int | None, float | None]:
    """70% default accuracy, 15% explicit accuracy, 15% fixed k."""
    if u < 0.70:
        return None, None
    if u < 0.85:
        la = abs(math.log(abs(z)))
        scale = la + abs(z) * (la + 1.0) + 1.0
        return None, scale * 10.0 ** (-11.0 + 5.0 * v)
    return 1 + int(20 * v), None


def mixed_op(seq: Sequence, slot: str) -> tuple:
    u = seq.point(slot)
    if slot == "theta":
        return ("theta", _log_uniform(u[0], 0.05, 60.0), VARIANTS[int(3 * u[1])])
    if slot == "pole":
        n = 1 + int(60 * u[0])
        dr = math.copysign(10.0 ** (-12.0 + 6.0 * u[1]), u[2] - 0.5)
        di = math.copysign(10.0 ** (-12.0 + 6.0 * u[3]), u[4] - 0.5)
        return ("lngamma", complex(-n + dr, di), False, None, None)
    angle = math.pi * (u[1] - 0.5 if slot == "half" else 2.0 * u[1] - 1.0)
    left = abs(angle) > 0.5 * math.pi
    z = cmath.rect(_log_uniform(u[0], 1e-3, REFLECTED_MAX_ABS if left else 1e15), angle)
    if slot == "half":
        z = complex(abs(z.real), z.imag)
    elif z.imag == 0.0 and z.real <= 0.0:
        z = complex(z.real, abs(z) * 1e-15)
    k, acc = _lngamma_mode(u[2], u[3], z)
    return ("lngamma", z, slot == "half", k, acc)


def certify_mixed_inputs(seed: int, n: int) -> list[tuple]:
    seq = Sequence(random.Random(f"certify-mixed:{seed}"), tuple(dict.fromkeys(MIXED_SLOTS)))
    return [mixed_op(seq, MIXED_SLOTS[i % len(MIXED_SLOTS)]) for i in range(n)]


#: theta-high strata: equal steps of log t over [30, 1000], in bit-reversed
#: order so that any prefix of a pass is spread over the whole range.
THETA_STRATA = 16


def theta_high_inputs(seed: int, n: int) -> list[tuple]:
    """One height per stratum, the pass repeating with fresh jitter.

    A call's cost grows like t^2.75 up to the cap, so a stratum's cost is
    set by its place in the range and the seed moves each height only
    within 2.5% of its stratum.  Near the cap the cost of one height still
    varies by up to 1.8 times with its last bits (the exact ``Fraction``
    fallback), so every pass draws fresh heights and a run averages over
    as many of them as it has passes.
    """
    rng = random.Random(f"theta-high:{seed}")
    ops = []
    for i in range(n):
        s = int(radical_inverse(i % THETA_STRATA, 2) * THETA_STRATA)
        u = (s + 0.5 + 0.05 * (rng.random() - 0.5)) / THETA_STRATA
        ops.append(("theta", _log_uniform(u, 30.0, 1000.0), "arctan"))
    return ops


def _oracle_cells() -> tuple[tuple, ...]:
    """Fifteen fixed cells: thirteen remainders spread over family, k 1-20,
    12-20 digits and the grid, and two theta rows.  The odd count puts the
    median of a pass inside one cell's samples, not on the gap between two
    cells of different cost."""
    cells = []
    for j in range(13):
        cells.append(("rem", GRID[(j * 11) % len(GRID)], 1 + (j * 7) % 20,
                      ("stirling", "gauss")[j % 2], 12 + (j * 5) % 9))
        if j == 6:
            cells.append(("trow", 0.75))
    cells.append(("trow", 1.5))
    return tuple(cells)


ORACLE_CELLS = _oracle_cells()


def oracle_inputs(seed: int, n: int) -> list[tuple]:
    """The cells over and over, each op's point jittered by the seed
    so that every z (or t) is distinct and no oracle cache entry repeats.
    The cells are fixed so that a seed does not change the cost mix."""
    rng = random.Random(f"oracle-remainder:{seed}")
    ops = []
    for i in range(n):
        cell = ORACLE_CELLS[i % len(ORACLE_CELLS)]
        jitter = 1.0 + 1e-3 * (rng.random() - 0.5)
        if cell[0] == "trow":
            t = cell[1] * jitter
            digits = math.ceil(2.0 * math.pi * t / math.log(10.0)) + 30
            ops.append(("trow", t, max(1, round(math.pi * t)), digits))
        else:
            _, z, k, family, digits = cell
            ops.append(("rem", z * jitter, k, family, digits))
    return ops


def cli_inputs(seed: int, n: int) -> list[tuple]:
    """The certify-mixed mix, each op sent as one CLI record."""
    seq = Sequence(random.Random(f"cli-records:{seed}"), tuple(dict.fromkeys(MIXED_SLOTS)))
    return [("cli", mixed_op(seq, MIXED_SLOTS[i % len(MIXED_SLOTS)])) for i in range(n)]


@dataclass(frozen=True)
class Workload:
    name: str
    generate: object
    #: ops generated per run; a cycled pool repeats, a stream must not run out
    size: int
    cycle: bool
    #: seed-independent ops run in set-up, before the timed window, to grow
    #: the tables the workload uses
    warmup: tuple
    #: leading ops whose outcomes form the digests
    digest_ops: int
    #: ops in one pass of the mix; a window ends on a pass boundary
    pass_len: int
    #: the reference work that times are normalized by (``speed.KINDS``)
    reference: str
    #: take the reference bursts from a timer, inside ops that last long
    #: enough for the machine's speed to change; else between ops
    timer: bool
    #: fresh processes the window is split over, one after another; a
    #: traced run traces the second half of them
    workers: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify-mixed", certify_mixed_inputs, 4096, True,
                 tuple(certify_mixed_inputs(0, 64)), 4096, 4096,
                 reference="complex", timer=False, workers=4),
        # A height beyond the cap scans k_min, and grows the Bernoulli
        # table, up to the cap: the growth every refused height needs.
        # A pass takes about 4 s, so two workers of half the window fit
        # more whole passes, and more heights near the median, than four.
        Workload("theta-high", theta_high_inputs, 64 * THETA_STRATA, True,
                 (("theta", 1000.0, "arctan"),), THETA_STRATA, THETA_STRATA,
                 reference="fraction", timer=True, workers=2),
        Workload("oracle-remainder", oracle_inputs, 20000, False,
                 tuple(oracle_inputs(0, 1)), len(ORACLE_CELLS), len(ORACLE_CELLS),
                 reference="mpf", timer=True, workers=4),
        Workload("cli-records", cli_inputs, 2000, False,
                 tuple(cli_inputs(0, 1)), 16, len(MIXED_SLOTS),
                 reference="mpf", timer=False, workers=4),
    )
}


# ---------------------------------------------------------------------------
# running one op
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    """What one op returned: an error type name, or value, radius and the
    structural fields (k used, shifts, bound kind, flags)."""

    error: str | None
    value: object = None
    #: None for oracle results, whose radius follows from their digits
    radius: float | None = None
    shape: tuple = ()


def _certified(r) -> Outcome:
    plan = r.plan
    return Outcome(None, r.value, r.radius, (plan.k, plan.shifts, plan.bound_kind.value, r.flags))


def _theta(r) -> Outcome:
    kind = r.bound_kind.value if r.bound_kind is not None else ""
    return Outcome(None, r.value, r.radius, (r.k_used, None, kind, r.flags))


def cli_argv(op: tuple) -> list[str]:
    """Arguments for one record.  Values go in ``--key=value`` form: argparse
    reads a separate ``-2.7e-07`` as an option, not as a negative number."""
    if op[0] == "theta":
        return ["theta", f"--t={op[1]!r}", f"--variant={op[2]}"]
    _, z, half, k, acc = op
    argv = ["lngamma", f"--re={z.real!r}", f"--im={z.imag!r}"]
    if half:
        argv.append("--half")
    if k is not None:
        argv.append(f"--terms={k}")
    if acc is not None:
        argv.append(f"--accuracy={acc!r}")
    return argv


def parse_cli(op: tuple, code: int, out: str, err: str) -> Outcome:
    if code != 0:
        try:
            kind = json.loads(err.splitlines()[-1])["error"]["type"]
        except (IndexError, KeyError, ValueError):
            kind = f"exit-{code}"
        return Outcome(kind)
    rec = json.loads(out)
    o = rec["outputs"]
    flags = tuple(rec["flags"])
    if op[0] == "theta":
        return Outcome(None, float(o["value"]), float(o["radius"]),
                       (int(o["k_used"]), None, o["bound_kind"], flags))
    value = complex(float(o["value_re"]), float(o["value_im"]))
    return Outcome(None, value, float(o["radius"]),
                   (int(o["k_used"]), int(o["shifts"]), o["bound_kind"], flags))


class Runner:
    """Runs ops against the package module ``gt`` and its CLI."""

    def __init__(self, gt, root: str, env: dict):
        self.gt = gt
        self.root = root
        self.env = env
        #: in-process ``cli.main`` per CLI record (traced runs only)
        self.cli_in_process = False

    def run(self, op: tuple) -> Outcome:
        try:
            return self._run(op)
        except Exception as exc:  # the outcome records the failure
            name = type(exc).__name__
            return Outcome(name if name in TYPED_ERRORS else f"untyped:{name}")

    def _run(self, op: tuple) -> Outcome:
        gt = self.gt
        kind = op[0]
        if kind == "lngamma":
            _, z, half, k, acc = op
            fn = gt.eval_lngamma_half if half else gt.eval_lngamma
            return _certified(fn(z, k=k, accuracy=acc))
        if kind == "theta":
            return _theta(gt.eval_theta(op[1], "auto", op[2]))
        if kind == "rem":
            _, z, k, family, digits = op
            return Outcome(None, gt.oracle_remainder(z, k, family, digits), None, (digits,))
        if kind == "trow":
            _, t, k, digits = op
            rem = gt.oracle_theta_remainder(k, t, digits)
            series = gt.theta_series_value(t, k, digits, "arctan")
            return Outcome(None, (rem, series), None, (digits,))
        argv = cli_argv(op[1])
        proc = subprocess.run(
            [sys.executable, "-m", "gammatheta.cli", *argv],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=60,
        )
        if self.cli_in_process:
            self._cli_main(argv)
        return parse_cli(op[1], proc.returncode, proc.stdout, proc.stderr)

    def _cli_main(self, argv: list[str]) -> None:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            self.gt.cli.main(argv)
