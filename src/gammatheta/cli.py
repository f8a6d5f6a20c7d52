"""Command-line surface: point evaluation, table reproduction, bound
comparison sweeps, and the conjecture scanner, with machine-readable output.

Output contract
---------------
Every data record is one line on stdout, either NDJSON (default) or
RFC-4180 CSV.  The JSON schema is::

    {"schema_version": "1", "command": str, "inputs": {str: str},
     "outputs": {str: str}, "flags": [str]}

All numbers are serialized as decimal strings (never binary floats) so
extended-precision outputs survive the trip; parsing an emitted record with
``json.loads`` and re-emitting it with ``json.dumps(obj, sort_keys=True,
separators=(",", ":"))`` reproduces the bytes exactly.  CSV carries a header
row naming every output field plus a trailing ``flags`` column
(semicolon-joined); CSV and JSON encode identical decimal strings.

Errors are emitted as a single structured JSON record on *stderr*
(``{"schema_version": "1", "command": ..., "inputs": ..., "error":
{"type": ..., "message": ...}, "flags": ["ERROR"]}``) so that a partially
written CSV stream on stdout stays well-formed.  Exit status is 0 iff no
error record was emitted; otherwise 2 (domain), 3 (accuracy),
4 (resource limit), or 5 (internal consistency).

Normalized-error table formatting
---------------------------------
The published table prints two significant figures in a mixed style.  The
exact rule used here, per column: ``A`` and ``D`` are always scientific with
two significant digits, mantissa ``d.d``, lowercase ``e``, bare integer
exponent (``7.2e1``, ``-1.1e-2``), ``D`` with an explicit leading sign;
``B`` is fixed-point with three significant digits (``3.57``, ``10.0``);
``C`` is fixed-point with two decimal places (``-0.79``).  Scientific
notation is used whenever |x| >= 100 or |x| < 0.01, and column precedent
makes ``A`` scientific throughout.  Full-precision decimal strings
accompany the formatted cells in ``*_exact`` fields.
"""
from __future__ import annotations

import argparse
import csv
import json
import signal
import sys
from decimal import ROUND_HALF_EVEN, Decimal

from .bounds import CONTAINMENT_T, Target, best_bound, containment_grid
from .errors import (
    AccuracyError,
    ConsistencyError,
    DomainError,
    ResourceLimitError,
)
from .lngamma import eval_lngamma, eval_lngamma_half
from .theta import ThetaVariant, eval_theta

__all__ = ["main", "build_parser"]

SCHEMA_VERSION = "1"

#: Options that take a float.  argparse reads a separate negative value in
#: exponent form (``--re -1e-3``) as an option, so ``main`` binds such a value
#: to its option (``--re=-1e-3``) before parsing.
_FLOAT_OPTIONS = frozenset({"--re", "--im", "--t", "--accuracy"})

#: Exit status per error class; 0 means no error record was emitted.
EXIT_CODES = {
    DomainError: 2,
    AccuracyError: 3,
    ResourceLimitError: 4,
    ConsistencyError: 5,
}

#: Hard ceilings that turn an oversized sweep into a structured resource
#: error *after* the in-budget prefix of the grid has been emitted.
MAX_CONJECTURE_KMAX = 48
MAX_BOUNDS_POINTS = 4000

_JSON_KWARGS = {"sort_keys": True, "separators": (",", ":")}


# ---------------------------------------------------------------------------
# record emission
# ---------------------------------------------------------------------------


class Emitter:
    """Writes uniform data records to stdout in the selected format."""

    def __init__(self, fmt: str):
        self.fmt = fmt
        self._header: list[str] | None = None
        self._csv = (
            csv.writer(sys.stdout, lineterminator="\r\n")
            if fmt == "csv"
            else None
        )

    def emit(self, command: str, inputs: dict, outputs: dict, flags) -> None:
        flags = list(flags)
        if self._csv is None:
            record = {
                "schema_version": SCHEMA_VERSION,
                "command": command,
                "inputs": inputs,
                "outputs": outputs,
                "flags": flags,
            }
            sys.stdout.write(json.dumps(record, **_JSON_KWARGS) + "\n")
        else:
            fields = list(outputs) + ["flags"]
            if self._header is None:
                self._header = fields
                self._csv.writerow(self._header)
            elif fields != self._header:
                raise ConsistencyError(
                    "internal: CSV records of one command must share columns"
                )
            self._csv.writerow([*outputs.values(), ";".join(flags)])


def _emit_error(command: str, inputs: dict, exc: Exception) -> None:
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "error": {"type": type(exc).__name__, "message": str(exc)},
        "flags": ["ERROR"],
    }
    sys.stderr.write(json.dumps(record, **_JSON_KWARGS) + "\n")


# ---------------------------------------------------------------------------
# decimal-string formatting
# ---------------------------------------------------------------------------


def _sci2(x: Decimal, explicit_sign: bool) -> str:
    """Two significant digits, ``d.de<exp>`` with a bare integer exponent."""
    if x == 0:
        return "+0.0e0" if explicit_sign else "0.0e0"
    sign = "-" if x < 0 else ("+" if explicit_sign else "")
    ax = -x if x < 0 else x
    exponent = ax.adjusted()
    mantissa = ax.scaleb(-exponent).quantize(Decimal("1.0"), ROUND_HALF_EVEN)
    if mantissa >= 10:
        mantissa = Decimal("1.0")
        exponent += 1
    return f"{sign}{mantissa}e{exponent}"


def _fixed_sig3(x: Decimal) -> str:
    """Three significant digits in fixed-point form (``3.57``, ``10.0``)."""
    ax = -x if x < 0 else x
    quantum = Decimal(1).scaleb(ax.adjusted() - 2)
    return str(x.quantize(quantum, ROUND_HALF_EVEN))


def _fixed_dec2(x: Decimal) -> str:
    """Two decimal places (``-0.79``, ``-0.50``)."""
    return str(x.quantize(Decimal("0.01"), ROUND_HALF_EVEN))


def _mpf_str(x, digits: int = 25) -> str:
    from mpmath import mp

    return mp.nstr(x, digits)


def _bool_str(value: bool) -> str:
    return "true" if value else "false"


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _lngamma_inputs(ns) -> dict:
    inputs = {
        "re": repr(ns.re),
        "im": repr(ns.im),
        "half": _bool_str(ns.half),
    }
    if ns.terms is not None:
        inputs["terms"] = str(ns.terms)
    elif ns.accuracy is not None:
        inputs["accuracy"] = repr(ns.accuracy)
    else:
        inputs["accuracy"] = "default"
    return inputs


def cmd_lngamma(ns, emitter: Emitter) -> None:
    z = complex(ns.re, ns.im)
    evaluate = eval_lngamma_half if ns.half else eval_lngamma
    result = evaluate(z, k=ns.terms, accuracy=ns.accuracy)
    outputs = {
        "value_re": repr(result.value.real),
        "value_im": repr(result.value.imag),
        "radius": repr(result.radius),
        "k_used": str(result.plan.k),
        "shifts": str(result.plan.shifts),
        "bound_kind": result.plan.bound_kind.value,
        "truncation_bound": repr(result.plan.truncation_bound),
    }
    emitter.emit("lngamma", _lngamma_inputs(ns), outputs, result.flags)


def _theta_inputs(ns) -> dict:
    return {
        "t": repr(ns.t),
        "variant": ns.variant,
        "terms": str(ns.terms) if ns.terms is not None else "auto",
    }


def cmd_theta(ns, emitter: Emitter) -> None:
    result = eval_theta(
        ns.t,
        k=ns.terms if ns.terms is not None else "auto",
        variant=ThetaVariant(ns.variant),
    )
    outputs = {
        "value": repr(result.value),
        "radius": repr(result.radius),
        "k_used": str(result.k_used),
        "variant": result.variant.value,
        "bound_kind": result.bound_kind.value if result.bound_kind else "",
        "advisory_correction": (
            repr(result.advisory_correction)
            if result.advisory_correction is not None
            else ""
        ),
    }
    emitter.emit("theta", _theta_inputs(ns), outputs, result.flags)


def cmd_table1(ns, emitter: Emitter) -> None:
    from .oracle import c_k_string

    kmax = ns.kmax
    decimals = ns.digits if ns.digits is not None else 6
    if kmax < 1 or kmax > 100:
        raise DomainError(f"--kmax must lie in 1..100, got {kmax}")
    if decimals < 1 or decimals > 30:
        raise DomainError("--digits must lie in 1..30 for the c_k table")
    inputs = {"kmax": str(kmax), "decimals": str(decimals)}
    for k in range(1, kmax + 1):
        emitter.emit(
            "table1", inputs, {"k": str(k), "c_k": c_k_string(k, decimals)}, []
        )


def cmd_table2(ns, emitter: Emitter) -> None:
    from .oracle import table2_row

    try:
        heights = [float(part) for part in ns.t_list.split(",") if part.strip()]
    except ValueError as exc:
        raise DomainError(f"--t-list must be comma-separated numbers: {exc}")
    if not heights:
        raise DomainError("--t-list is empty")
    inputs = {
        "t_list": ns.t_list,
        "digits": str(ns.digits) if ns.digits is not None else "auto",
    }
    for t in heights:
        row = table2_row(t, digits=ns.digits)
        exact = {
            "A": _mpf_str(row.standard_error),
            "B": _mpf_str(row.proven_bound),
            "C": _mpf_str(row.arctan_error),
            "D": _mpf_str(row.empirical_error),
        }
        dec = {key: Decimal(value) for key, value in exact.items()}
        outputs = {
            "t": repr(row.t),
            "k_min": str(row.k_min),
            "A": _sci2(dec["A"], explicit_sign=False),
            "B": _fixed_sig3(dec["B"]),
            "C": _fixed_dec2(dec["C"]),
            "D": _sci2(dec["D"], explicit_sign=True),
            "A_exact": exact["A"],
            "B_exact": exact["B"],
            "C_exact": exact["C"],
            "D_exact": exact["D"],
        }
        emitter.emit("table2", inputs, outputs, [])


def _parse_grid(spec: str | None) -> dict[str, str]:
    grid: dict[str, str] = {}
    if not spec:
        return grid
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise DomainError(
                f"--grid entries must look like key=value, got {part!r}"
            )
        key, _, value = part.partition("=")
        grid[key.strip()] = value.strip()
    return grid


def _grid_int(grid: dict[str, str], key: str, default: int) -> int:
    if key not in grid:
        return default
    try:
        return int(grid[key])
    except ValueError:
        raise DomainError(f"--grid {key} must be an integer, got {grid[key]!r}")


def _grid_range(grid: dict[str, str], key: str, default: range) -> range:
    if key not in grid:
        return default
    text = grid[key]
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return range(int(lo), int(hi) + 1)
        single = int(text)
        return range(single, single + 1)
    except ValueError:
        raise DomainError(f"--grid {key} must be N or A..B, got {text!r}")


_CONJECTURE_FIELDS = (
    "record",
    "k",
    "abs_z",
    "arg_z",
    "true_over_term",
    "conjectured",
    "ratio",
    "violation",
    "status",
    "max_ratio",
    "violations",
    "samples",
)


def _scan_conjecture(ns, grid: dict, emitter: Emitter, inputs: dict) -> None:
    from .oracle import conjecture_scan

    kmax = _grid_int(grid, "kmax", 40)
    if kmax < 1:
        raise DomainError(f"--grid kmax must be >= 1, got {kmax}")
    digits = ns.digits if ns.digits is not None else 12
    inputs = dict(inputs, kmax=str(kmax), digits=str(digits))
    scanned_kmax = min(kmax, MAX_CONJECTURE_KMAX)
    max_ratio = 0.0
    violations = 0
    samples = 0
    for sample in conjecture_scan(k_max=scanned_kmax, digits=digits):
        samples += 1
        max_ratio = max(max_ratio, sample.ratio)
        violations += 1 if sample.violation else 0
        outputs = dict.fromkeys(_CONJECTURE_FIELDS, "")
        outputs.update(
            record="sample",
            k=str(sample.k),
            abs_z=repr(sample.abs_z),
            arg_z=repr(sample.arg_z),
            true_over_term=repr(sample.true_over_term),
            conjectured=repr(sample.conjectured),
            ratio=repr(sample.ratio),
            violation=_bool_str(sample.violation),
            status=sample.status,
        )
        flags = ["CONJECTURED"] if sample.status == "conjectured" else []
        if sample.violation:
            flags.append("VIOLATION")
        emitter.emit("scan", inputs, outputs, flags)
    if kmax > MAX_CONJECTURE_KMAX:
        raise ResourceLimitError(
            f"conjecture grid kmax={kmax} exceeds the ceiling "
            f"{MAX_CONJECTURE_KMAX}; emitted the first {samples} samples"
        )
    outputs = dict.fromkeys(_CONJECTURE_FIELDS, "")
    outputs.update(
        record="summary",
        max_ratio=repr(max_ratio),
        violations=str(violations),
        samples=str(samples),
    )
    emitter.emit("scan", inputs, outputs, [])


def _scan_sharpness(ns, grid: dict, emitter: Emitter, inputs: dict) -> None:
    from .oracle import SHARPNESS_SPOTS, sharpness_ratio

    digits = ns.digits if ns.digits is not None else 20
    inputs = dict(inputs, digits=str(digits))
    for k, y in SHARPNESS_SPOTS:
        ratio = sharpness_ratio(k, y, digits=digits)
        outputs = {
            "k": str(k),
            "y": repr(y),
            "ratio": _mpf_str(ratio, digits),
        }
        emitter.emit("scan", inputs, outputs, [])


def _scan_bounds(ns, grid: dict, emitter: Emitter, inputs: dict) -> None:
    ks = _grid_range(grid, "k", range(1, 9))
    if len(ks) == 0 or ks[0] < 1:
        raise DomainError("--grid k range must be nonempty and start at >= 1")
    points = [("stirling", z) for z in containment_grid()]
    points += [("gauss", z) for z in containment_grid()]
    points += [("theta", complex(t, 0.0)) for t in CONTAINMENT_T]
    total = len(points) * len(ks) * 2
    inputs = dict(inputs, k=f"{ks[0]}..{ks[-1]}")
    emitted = 0
    for k in ks:
        for family, argument in points:
            for target in (Target.R_KP1, Target.R_K):
                if emitted >= MAX_BOUNDS_POINTS:
                    raise ResourceLimitError(
                        f"bounds grid has {total} points, exceeding the "
                        f"ceiling {MAX_BOUNDS_POINTS}; emitted {emitted}"
                    )
                arg = argument.real if family == "theta" else argument
                best = best_bound(k, arg, family, target)
                outputs = {
                    "family": family,
                    "target": target.value,
                    "k": str(k),
                    "argument_re": repr(argument.real),
                    "argument_im": repr(argument.imag),
                    "winner": best.kind.value,
                    "value": repr(best.value),
                    "normalized": repr(best.normalized),
                }
                emitter.emit("scan", inputs, outputs, best.flags)
                emitted += 1


#: Per ``--what``: its scan and the ``--grid`` keys it reads.
_SCANS = {
    "conjecture": (_scan_conjecture, {"kmax"}),
    "sharpness": (_scan_sharpness, set()),
    "bounds": (_scan_bounds, {"k"}),
}


def cmd_scan(ns, emitter: Emitter) -> None:
    scan, keys = _SCANS[ns.what]
    grid = _parse_grid(ns.grid)
    unread = ", ".join(sorted(set(grid) - keys))
    if unread:
        raise DomainError(f"--what {ns.what} reads no --grid key {unread}")
    scan(ns, grid, emitter, {"what": ns.what, "grid": ns.grid or ""})


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="output format: NDJSON (default) or RFC-4180 CSV",
    )

    parser = argparse.ArgumentParser(
        prog="gammatheta",
        description="Certified ln Gamma / Riemann-Siegel theta evaluation, "
        "constant tables, and bound scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "lngamma",
        parents=[common],
        help="certified ln Gamma(z) (or ln Gamma(z+1/2) with --half)",
    )
    p.add_argument("--re", type=float, required=True, help="Re(z)")
    p.add_argument("--im", type=float, required=True, help="Im(z)")
    # conflicts surface as structured domain-error records, not usage text
    p.add_argument("--terms", type=int, help="fixed series term count k")
    p.add_argument(
        "--accuracy", type=float, help="truncation-bound target epsilon "
        "(default: the floating-point floor)"
    )
    p.add_argument(
        "--half",
        action="store_true",
        help="evaluate ln Gamma(z + 1/2) (closed right half-plane)",
    )
    p.set_defaults(handler=cmd_lngamma)

    p = sub.add_parser(
        "theta",
        parents=[common],
        help="certified Riemann-Siegel theta(t)",
    )
    p.add_argument("--t", type=float, required=True, help="height t")
    p.add_argument(
        "--terms", type=int, help="fixed series term count k (default: least term)"
    )
    p.add_argument(
        "--variant",
        choices=tuple(v.value for v in ThetaVariant),
        default=ThetaVariant.ARCTAN.value,
        help="approximation variant (default: arctan)",
    )
    p.set_defaults(handler=cmd_theta)

    p = sub.add_parser(
        "table1",
        parents=[common],
        help="stream the c_k constants, rounded up to --digits decimals",
    )
    p.add_argument("--kmax", type=int, default=50, help="largest k (<= 100)")
    p.add_argument("--digits", type=int, help="c_k decimals (default 6)")
    p.set_defaults(handler=cmd_table1)

    p = sub.add_parser(
        "table2",
        parents=[common],
        help="stream normalized-error rows for a list of heights t",
    )
    p.add_argument(
        "--t-list",
        default="1,2,5,10,20,50,100",
        help="comma-separated heights (default: the published seven)",
    )
    p.add_argument("--digits", type=int, help="row working digits (default: from t)")
    p.set_defaults(handler=cmd_table2)

    p = sub.add_parser(
        "scan",
        parents=[common],
        help="sweep: conjectured-bound scan, sharpness spots, or bound winners",
    )
    p.add_argument(
        "--what",
        choices=("conjecture", "sharpness", "bounds"),
        required=True,
    )
    p.add_argument(
        "--grid",
        default=None,
        help="grid spec: 'kmax=N' (conjecture) or 'k=A..B' (bounds)",
    )
    p.add_argument(
        "--digits", type=int, help="oracle digits (conjecture 12, sharpness 20)"
    )
    p.set_defaults(handler=cmd_scan)

    return parser


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _bind_float_values(args: list[str]) -> list[str]:
    """Join each float option with the float token after it."""
    bound: list[str] = []
    for token in args:
        if bound and bound[-1] in _FLOAT_OPTIONS and _is_float(token):
            bound[-1] += "=" + token
        else:
            bound.append(token)
    return bound


def main(argv=None) -> int:
    if hasattr(signal, "SIGPIPE"):
        # Die quietly like any stream tool when a downstream pipe closes.
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    args = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    ns = parser.parse_args(_bind_float_values(args))
    emitter = Emitter(ns.format)
    try:
        ns.handler(ns, emitter)
        sys.stdout.flush()
        return 0
    except (DomainError, AccuracyError, ResourceLimitError, ConsistencyError) as exc:
        sys.stdout.flush()
        _emit_error(ns.command, {"argv": " ".join(args)}, exc)
        return EXIT_CODES[type(exc)]


if __name__ == "__main__":
    sys.exit(main())
