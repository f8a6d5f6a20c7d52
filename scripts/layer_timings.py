"""In-process time per call of each fast-path layer, for two source trees.

    python3 scripts/layer_timings.py BEFORE_SRC AFTER_SRC [--rounds 15] [--out FILE]

``BEFORE_SRC`` and ``AFTER_SRC`` are directories holding the ``gammatheta``
package (a checkout's ``src``).  One process loads both, as the packages
``before`` and ``after``, and times every case below on both, interleaved:
per case, a warm-up (``timeit``'s ``autorange``), then ``--rounds`` pairs of timed loops of about
20 ms each, the two trees alternating first.  The report holds, per case and
tree, the least and the median time per call over the rounds in
microseconds, and the after/before ratio of the medians and of the least.
"""
from __future__ import annotations

import argparse
import cmath
import importlib.util
import json
import math
import random
import statistics
import sys
import timeit
from pathlib import Path


def _load(name: str, src: str):
    """The ``gammatheta`` package under ``src``, imported as ``name``."""
    package = Path(src) / "gammatheta"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _cases(package) -> dict:
    """Name -> (call, calls per loop) on one loaded package."""
    lngamma, series, theta = package.lngamma, package.series, package.theta
    rng = random.Random(31)
    pool = []
    for _ in range(256):
        z = cmath.rect(10.0 ** rng.uniform(-3.0, 15.0), rng.uniform(-math.pi, math.pi))
        if not (z.imag == 0.0 and z.real <= 0.0):
            pool.append(z)

    def lngamma_pool():
        for z in pool:
            lngamma.eval_lngamma(z)

    return {
        "eval_lngamma default (6+1j)": (lambda: lngamma.eval_lngamma(6 + 1j), 1),
        "eval_lngamma reflected (-6-1j)": (lambda: lngamma.eval_lngamma(-6 - 1j), 1),
        "eval_lngamma reflected, 5 shifts (-2.5+1j)": (
            lambda: lngamma.eval_lngamma(-2.5 + 1j), 1),
        "eval_lngamma accuracy=1e-10 (6+1j)": (
            lambda: lngamma.eval_lngamma(6 + 1j, accuracy=1e-10), 1),
        "eval_lngamma k=10 (6+1j)": (lambda: lngamma.eval_lngamma(6 + 1j, k=10), 1),
        "eval_lngamma pool (|z| 1e-3..1e15, all quadrants)": (lngamma_pool, len(pool)),
        "eval_lngamma_half (2.5-3j)": (lambda: lngamma.eval_lngamma_half(2.5 - 3j), 1),
        "choose_k (6+1j)": (lambda: lngamma.choose_k(6 + 1j, None), 1),
        "_plan (6+1j, k=8)": (lambda: lngamma._plan(6 + 1j, 8, "stirling"), 1),
        "partial_sum stirling k=8 (8+1j)": (
            lambda: series.partial_sum("stirling", 8, 8 + 1j), 1),
        "eval_theta t=1.7": (lambda: theta.eval_theta(1.7), 1),
        "eval_theta t=10": (lambda: theta.eval_theta(10.0), 1),
        "eval_theta t=30": (lambda: theta.eval_theta(30.0), 1),
        "k_min t=30": (lambda: series.k_min(30.0), 1),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    cases = {side: _cases(_load(side, getattr(args, side))) for side in ("before", "after")}
    report = {
        "rounds": args.rounds,
        "unit": "us per call",
        "trees": {"before": args.before, "after": args.after},
        "cases": {},
    }
    for name in cases["before"]:
        times = {"before": [], "after": []}
        numbers = {}
        for side in times:
            call, _ = cases[side][name]
            number, elapsed = timeit.Timer(call).autorange()
            numbers[side] = max(1, int(0.02 * number / elapsed))
        for r in range(args.rounds):
            for side in ("before", "after") if r % 2 == 0 else ("after", "before"):
                call, per_loop = cases[side][name]
                elapsed = timeit.timeit(call, number=numbers[side])
                times[side].append(1e6 * elapsed / (numbers[side] * per_loop))
        entry = {}
        for side, runs in times.items():
            entry[side] = {
                "median": round(statistics.median(runs), 3),
                "least": round(min(runs), 3),
                "runs": [round(t, 3) for t in runs],
            }
        entry["ratio_median"] = round(entry["after"]["median"] / entry["before"]["median"], 4)
        entry["ratio_least"] = round(entry["after"]["least"] / entry["before"]["least"], 4)
        report["cases"][name] = entry
        print(
            f"{name:52s} {entry['before']['median']:9.2f} {entry['after']['median']:9.2f}"
            f"  {entry['ratio_median']:6.3f}  (least {entry['ratio_least']:6.3f})"
        )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
