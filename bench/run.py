"""gammatheta benchmark: one seeded workload, one closed-loop client.

    python3 bench/run.py --workload certify-mixed --seed 1 --seconds 25 --trace 0

Run from the repository root.  The package is imported from ``src/``.

The timed window is split over the workload's fresh worker processes (two
or four), run one after another, never two at once.  On the machine the
benchmark was built on, the same call's speed differs by up to 40% between
two processes, so one process would report its own luck.  Each worker
times ``import gammatheta`` before loading anything else, runs the
workload's fixed warm-up ops (first-use table growth), and then sends one
operation after another, in whole passes of the workload's mix, for its
share of ``--seconds``.
Afterwards this process checks every distinct input of the window against
an mpmath-only reference.

Times are reported at a fixed reference speed: bursts of reference work
(``speed.py``), timed through set-up and window, give each op the factor
by which the machine ran slower or faster than the reference around it.
``setup_s`` is the median over the workers of import plus warm-up, scaled
the same way.  The raw wall-clock figures are in the details.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the first
half of the workers untraced and the second half traced (spans from
``tracing.py``), and prints the per-layer metrics and the tracing overhead.
The last line of stdout is the result object; the line before it holds the
details (fingerprint, digests, raw error and containment ratios, tail
percentile, wall-clock figures), which are also written with the spans
under ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import gzip
import json
import os
import pickle
import resource
import subprocess
import sys
import time
from pathlib import Path

import speed
import stats
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: reference bursts timed before and after the warm-up, to scale set-up
SETUP_BURSTS = 8
INTERPRETER_RUNS = 5

#: A worker: the package import is timed before any other module loads.
WORKER = """
import sys, time
t0 = time.perf_counter()
import gammatheta, gammatheta.cli
t1 = time.perf_counter()
import run
run.worker(sys.argv[1], t1 - t0)
"""


def child_env(with_bench: bool = False) -> dict:
    env = dict(os.environ)
    paths = [str(SRC)] + ([str(BENCH)] if with_bench else [])
    env["PYTHONPATH"] = os.pathsep.join(paths + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def import_package():
    sys.path.insert(0, str(SRC))
    import gammatheta
    import gammatheta.cli  # noqa: F401  (Runner and traced runs use it)

    if Path(gammatheta.__file__).resolve().parent != SRC / "gammatheta":
        raise ImportError(f"gammatheta imported from {gammatheta.__file__}, not {SRC}")
    return gammatheta


class Window:
    """One closed-loop timed window over the op list."""

    def __init__(self, runner, ops, w, outcomes: dict, mismatches: list):
        self.runner = runner
        self.ops = ops
        self.w = w
        self.outcomes = outcomes
        self.mismatches = mismatches

    def run(self, start: int, seconds: float, tracer=None) -> dict:
        """Send ops from index ``start`` in whole passes, stopping at the pass
        boundary nearest to ``seconds`` (at least one pass), so that every
        part of the mix carries the same weight in every run.  Bursts of
        reference work (``speed.py``) run every ``speed.EVERY`` seconds,
        between ops or, for a workload of long ops, from a timer; an op's
        latency leaves out the bursts inside it, and ``scale`` gives its
        factor to the reference speed."""
        ops, n = self.ops, len(self.ops)
        clock = time.perf_counter
        ref = speed.Speed(self.w.reference)
        visits: list[int] = []
        spans: list[tuple[float, float]] = []
        i = start
        ref.sample()
        pass_start = clock()
        deadline = pass_start + seconds
        with ref.ticking(self.w.timer):
            while True:
                if (i - start) % self.w.pass_len == 0 and i > start:
                    now = clock()
                    if now + (now - pass_start) / 2 >= deadline:
                        break
                    pass_start = now
                j = i % n if self.w.cycle else i
                if j >= n:
                    raise RuntimeError("input stream exhausted; raise the workload size")
                if tracer is not None:
                    tracer.op = i
                t0 = clock()
                out = self.runner.run(ops[j])
                t1 = clock()
                prev = self.outcomes.setdefault(j, out)
                if prev != out:
                    self.mismatches.append(j)
                visits.append(j)
                spans.append((t0, t1))
                if not self.w.timer and ref.due(t1):
                    ref.sample()
                i += 1
        ref.sample()
        return {"end": i, "visits": visits,
                "latencies": [ref.clean(t1) - ref.clean(t0) for t0, t1 in spans],
                "scale": [ref.factor_at(t0, t1) for t0, t1 in spans],
                "bursts": ref.bursts, "speed": ref}


def worker(spec: str, import_s: float) -> None:
    """One worker process: warm up, run its part of the window, and write
    the pickled results to stdout."""
    args = json.loads(spec)
    w = workloads.WORKLOADS[args["workload"]]
    gt = import_package()
    runner = workloads.Runner(gt, str(ROOT), child_env())
    ref = speed.Speed(w.reference)
    for _ in range(SETUP_BURSTS):
        ref.sample()
    t0 = time.perf_counter()
    with ref.ticking(w.timer):
        for op in w.warmup:
            runner.run(op)
    t1 = time.perf_counter()
    for _ in range(SETUP_BURSTS):
        ref.sample()
    setup_wall_s = import_s + ref.clean(t1) - ref.clean(t0)
    setup_factor = speed.factor(w.reference, ref.bursts)

    ops = w.generate(args["seed"], w.size)
    outcomes: dict = {}
    mismatches: list[int] = []
    window = Window(runner, ops, w, outcomes, mismatches)
    tracer = None
    if args["traced"]:
        import tracing

        tracer = tracing.Tracer()
        runner.cli_in_process = True
        with tracer:
            win = window.run(args["start"], args["seconds"], tracer)
        # spans in reference-speed seconds, bursts left out, with the
        # factor of their op
        scale, clean = win["scale"], win["speed"].clean
        tracer.spans = [(name, clean(s) * scale[op - args["start"]],
                         clean(e) * scale[op - args["start"]], parent, op, info)
                        for name, s, e, parent, op, info in tracer.spans]
    else:
        win = window.run(args["start"], args["seconds"])
    who = resource.RUSAGE_CHILDREN if w.name == "cli-records" else resource.RUSAGE_SELF
    del win["speed"]
    win.update({
        "import_s": import_s * setup_factor,
        "setup_s": setup_wall_s * setup_factor,
        "setup_wall_s": setup_wall_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "outcomes": outcomes,
        "mismatches": mismatches,
        "spans": tracer.spans if tracer else None,
        "table_entries": len(sys.modules["gammatheta.bernoulli"].shared_table()._even) - 1,
    })
    sys.stdout.buffer.write(pickle.dumps(win))


def run_worker(name: str, seed: int, start: int, seconds: float, traced: bool) -> dict:
    spec = json.dumps({"workload": name, "seed": seed, "start": start,
                       "seconds": seconds, "traced": traced})
    proc = subprocess.run([sys.executable, "-c", WORKER, spec], cwd=ROOT,
                          env=child_env(with_bench=True), capture_output=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed: {proc.stderr.decode(errors='replace')[-800:]}")
    return pickle.loads(proc.stdout)  # written by the worker above


def interpreter_start_ms() -> float:
    times = []
    for _ in range(INTERPRETER_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=child_env(),
                       check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return 1e3 * stats.median(times)


def summarize(parts: list[dict], outcomes: dict, checks: dict) -> tuple:
    """End-to-end metrics from the workers' windows.  Times are at the
    reference speed (``speed.py``): each op's wall time times its factor.
    Throughput is successful ops over the scaled time of all ops sent."""
    ok_lat, ok_wall, contained, digits, failed, attempted = [], [], 0, [], 0, 0
    busy = busy_wall = 0.0
    for part in parts:
        for j, lat, f in zip(part["visits"], part["latencies"], part["scale"]):
            attempted += 1
            busy += lat * f
            busy_wall += lat
            verdict = checks[j].verdict
            if verdict in ("broken", "violation"):
                failed += 1
            if outcomes[j].error is None:
                ok_lat.append(lat * f)
                ok_wall.append(lat)
                contained += verdict == "contained"
                if checks[j].radius_digits is not None:
                    digits.append(checks[j].radius_digits)
    p, tail_value, beyond = stats.tail(ok_lat) if ok_lat else (None, float("nan"), 0)
    metrics = {
        "throughput_ops_s": len(ok_lat) / busy,
        "latency_p50_ms": 1e3 * stats.median(ok_lat),
        "latency_tail_ms": 1e3 * tail_value,
        "certified_ratio": len(ok_lat) / attempted,
        "contained_ratio": contained / len(ok_lat) if ok_lat else float("nan"),
        "radius_digits_p50": stats.median(digits),
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
    }
    detail = {
        "attempted": attempted,
        "succeeded": len(ok_lat),
        "error_ratio": 1.0 - len(ok_lat) / attempted,
        "containment_violation_ratio": 1.0 - contained / len(ok_lat) if ok_lat else None,
        "radius_rel_log10_p50": -stats.median(digits) if digits else None,
        "latency_tail_percentile": p,
        "latency_tail_beyond": beyond,
        "latency_samples": len(ok_lat),
        "wall_throughput_ops_s": len(ok_lat) / busy_wall,
        "wall_latency_p50_ms": 1e3 * stats.median(ok_wall),
        "speed_factor_p50": [stats.median(part["scale"]) for part in parts],
        "bursts": sum(len(part["bursts"]) for part in parts),
    }
    return metrics, detail, attempted, failed


def run(args) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in manifest["per_layer" if args.trace else "end_to_end"]}
    w = workloads.WORKLOADS[args.workload]
    fp = stats.fingerprint()

    parts = []
    start = 0
    for k in range(w.workers):
        traced = bool(args.trace) and k >= w.workers // 2
        parts.append(run_worker(w.name, args.seed, start, args.seconds / w.workers, traced))
        start = parts[-1]["end"]
    measured = [p for p in parts if p["spans"] is not None] if args.trace else parts

    ops = w.generate(args.seed, w.size)
    outcomes: dict[int, workloads.Outcome] = {}
    mismatches: list[int] = []
    for part in parts:
        mismatches += part["mismatches"]
        for j, out in part["outcomes"].items():
            if outcomes.setdefault(j, out) != out:
                mismatches.append(j)
    digest_range = range(min(w.digest_ops, len(ops)))
    if any(j not in outcomes for j in digest_range):
        runner = workloads.Runner(import_package(), str(ROOT), child_env())
        for j in digest_range:
            if j not in outcomes:
                outcomes[j] = runner.run(ops[j])
    import reference

    checks = {j: reference.check(ops[j], out) for j, out in outcomes.items()}
    metrics, detail, attempted, failed = summarize(measured, outcomes, checks)
    failed += len(mismatches)
    bad = sorted(j for j, c in checks.items() if c.verdict in ("broken", "violation"))
    correct = not bad and not mismatches
    setup = [p["setup_s"] for p in parts]
    imports = [p["import_s"] for p in parts]
    detail.update({
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fingerprint": fp,
        "setup_samples_s": setup, "import_samples_s": imports,
        "setup_wall_samples_s": [p["setup_wall_s"] for p in parts],
        "distinct_ops_checked": len(checks),
        "known_defect_violations": sum(c.verdict == "known-defect" for c in checks.values()),
        "refused": sum(c.verdict == "refused" for c in checks.values()),
        "failures": [repr(ops[j]) for j in bad[:20]],
        "nondeterministic": [repr(ops[j]) for j in mismatches[:20]],
        "digests": stats.output_digests([outcomes[j] for j in digest_range]),
    })

    spans = None
    if args.trace:
        import tracing

        plain = [p for p in parts if p["spans"] is None]
        # parent indices count within one worker; shift them past earlier workers
        spans, offset = [], 0
        for part in measured:
            spans += [(n, s, e, par + offset if par >= 0 else -1, op, info)
                      for n, s, e, par, op, info in part["spans"]]
            offset = len(spans)
        traced_ops = sum(len(p["visits"]) for p in measured)
        results = [outcomes[j] for p in measured for j in p["visits"]
                   if outcomes[j].error is None]
        layer = tracing.per_layer(spans, traced_ops, results)

        def per_op(ps):
            busy = sum(lat * f for p in ps for lat, f in zip(p["latencies"], p["scale"]))
            return busy / max(sum(len(p["visits"]) for p in ps), 1)

        layer.update({
            "bernoulli.table_entries": max(p["table_entries"] for p in parts),
            "bernoulli.growth_s": stats.median([s - i for s, i in zip(setup, imports)]),
            "cli.interpreter_start_ms": interpreter_start_ms(),
            "cli.import_ms": 1e3 * stats.median(imports),
            "trace.overhead_pct": 100.0 * (per_op(measured) / per_op(plain) - 1.0),
            "trace.ops": traced_ops,
        })
        out_metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
        detail["untraced_ops"] = sum(len(p["visits"]) for p in plain)
    else:
        metrics["setup_s"] = stats.median(setup)
        out_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        detail["end_to_end"] = out_metrics
    if set(out_metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(out_metrics)} differ from BENCHMARK.json")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump(detail, fh, indent=1, default=repr)
    if spans is not None:
        with gzip.open(f"{stem}-spans.jsonl.gz", "wt") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op", "info"]) + "\n")
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(detail, default=repr))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gammatheta" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
