"""Tests of the benchmark itself: seeded inputs, the tail-percentile rule,
self-time subtraction, the restoring of traced bindings and the speed
reference.

    python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import os
import subprocess
import sys

import pytest

import reference
import speed
import stats
import tracing
import workloads
from workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_seed_gives_identical_inputs_every_time(name):
    gen = WORKLOADS[name].generate
    assert gen(7, 300) == gen(7, 300)
    assert gen(7, 300) != gen(8, 300)
    # a longer run extends the same stream
    assert gen(7, 600)[:300] == gen(7, 300)


def test_inputs_do_not_depend_on_the_hash_seed():
    code = (
        "import sys; sys.path.insert(0, 'bench'); import workloads as w; "
        "print(repr([w.WORKLOADS[n].generate(3, 40) for n in sorted(w.WORKLOADS)]))"
    )
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    outs = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        outs.add(subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                                capture_output=True, text=True, check=True).stdout)
    assert len(outs) == 1


def test_theta_high_runs_past_the_cap_and_certify_mixed_keeps_near_poles():
    heights = [op[1] for op in workloads.theta_high_inputs(1, workloads.THETA_STRATA)]
    assert min(heights) < 35 and max(heights) > 850
    assert sum(t > 318 for t in heights) == 5
    ops = workloads.certify_mixed_inputs(1, 800)
    assert sum(reference.known_defect(op) is not None for op in ops) >= 100
    assert any(op[0] == "lngamma" and op[1].real < 0 and abs(op[1]) > 1e4 for op in ops)


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [(20000, 99.9, 20), (10000, 99.9, 10), (9999, 99.0, 99), (1000, 99.0, 10),
     (999, 90.0, 99), (100, 90.0, 10), (99, 75.0, 24), (40, 75.0, 10), (39, 100.0, 0)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, percentile, beyond):
    values = [float(i) for i in range(n, 0, -1)]  # unsorted input
    p, value, got_beyond = stats.tail(values)
    assert (p, got_beyond) == (percentile, beyond)
    assert sum(v > value for v in values) == beyond


def test_self_time_subtracts_the_merged_child_intervals():
    spans = [
        ("root", 0.0, 10.0, -1, 0, None),   # children cover [1,4] and [5,6]
        ("a", 1.0, 3.0, 0, 0, None),
        ("b", 2.0, 4.0, 0, 0, None),        # overlaps a: union [1,4]
        ("c", 5.0, 6.0, 0, 0, None),
        ("leaf", 1.5, 2.5, 1, 0, None),     # grandchild: not subtracted from root
        ("solo", 20.0, 21.5, -1, 1, None),
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 1.0, 2.0, 1.0, 1.0, 1.5])


def test_inclusive_time_counts_a_recursive_call_once():
    spans = [
        ("f", 0.0, 4.0, -1, 0, None),
        ("f", 1.0, 3.0, 0, 0, None),
        ("g", 1.5, 2.0, 1, 0, None),
        ("f", 5.0, 6.0, -1, 1, None),
    ]
    assert tracing.inclusive_time(spans, "f") == pytest.approx(5.0)


def _wrappers_bound() -> bool:
    """True when a traced wrapper is bound anywhere in the package."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "gammatheta" or name.startswith("gammatheta.")):
            continue
        for value in vars(mod).values():
            members = vars(value).values() if isinstance(value, type) else ()
            for v in (value, *members):
                if getattr(v, "__qualname__", "").startswith("Tracer._wrap"):
                    return True
    return False


def _bindings():
    return {
        (name, key): value
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "gammatheta" or name.startswith("gammatheta."))
        for key, value in vars(mod).items()
    }


def test_traced_run_restores_every_rebound_name():
    import gammatheta
    import gammatheta.cli
    from gammatheta import lngamma, oracle, theta

    before = _bindings()
    assert not _wrappers_bound()
    emit = gammatheta.cli.Emitter.__dict__["emit"]
    runner = workloads.Runner(gammatheta, ".", dict(os.environ))
    tracer = tracing.Tracer()
    with tracer:
        assert _wrappers_bound()
        assert gammatheta.eval_lngamma is not before[("gammatheta", "eval_lngamma")]
        assert lngamma.best_bound is theta.best_bound
        assert lngamma.best_bound is not before[("gammatheta.lngamma", "best_bound")]
        assert oracle.oracle_lngamma is not before[("gammatheta.oracle", "oracle_lngamma")]
        assert gammatheta.cli.Emitter.__dict__["emit"] is not emit
        assert runner.run(("lngamma", -2.5 + 1j, False, None, None)).error is None
        assert runner.run(("theta", 12.5, "arctan")).error is None
        runner._cli_main(["theta", "--t", "3.0"])
    assert _bindings() == before
    assert gammatheta.cli.Emitter.__dict__["emit"] is emit
    assert not _wrappers_bound()

    names = {s[0] for s in tracer.spans}
    assert {"lngamma.eval_lngamma", "lngamma.choose_k", "bounds.best_bound",
            "series.partial_sum", "series.k_min", "theta.eval_theta",
            "cli.main", "cli.Emitter.emit"} <= names
    # the reflected call recurses through the rebound name
    evals = [s for s in tracer.spans if s[0] == "lngamma.eval_lngamma"]
    assert any(tracer.spans[s[3]][0] == "lngamma.eval_lngamma" for s in evals if s[3] >= 0)
    # after removal, calls record nothing
    count = len(tracer.spans)
    runner.run(("lngamma", 3.0 + 1j, False, None, None))
    assert len(tracer.spans) == count


def _synthetic_speed(starts, bursts):
    ref = speed.Speed("complex")
    for s, d in zip(starts, bursts):
        ref.starts.append(s)
        ref.bursts.append(d)
        ref.before.append(ref.before[-1] + d)
    return ref


def test_clean_time_leaves_out_the_bursts_inside_an_op():
    ref = _synthetic_speed([0.0, 1.0, 1.5, 3.0], [0.01, 0.02, 0.04, 0.01])
    # an op from 0.5 to 2.0 contains the bursts at 1.0 and 1.5
    assert ref.clean(2.0) - ref.clean(0.5) == pytest.approx(1.5 - 0.06)
    # an op between two bursts keeps its wall time
    assert ref.clean(2.9) - ref.clean(2.0) == pytest.approx(0.9)


def test_speed_factor_is_the_nominal_over_the_median_burst_near_the_op():
    nominal = speed.KINDS["complex"][1]
    starts = [speed.EVERY / 2 * k for k in range(40)]
    bursts = [2 * nominal] * 20 + [nominal / 2] * 20  # the machine speeds up
    ref = _synthetic_speed(starts, bursts)
    assert ref.factor_at(starts[5], starts[5] + 0.01) == pytest.approx(0.5)
    assert ref.factor_at(starts[30], starts[30] + 0.01) == pytest.approx(2.0)
    # one slow burst among its neighbours does not move the factor
    bursts[30] = 100 * nominal
    assert _synthetic_speed(starts, bursts).factor_at(starts[30], starts[30] + 0.01) == (
        pytest.approx(2.0))
    # with fewer than two bursts in reach, the nearest ones are used
    far = _synthetic_speed([0.0, 10.0, 20.0, 30.0], [nominal, nominal, nominal, 9 * nominal])
    assert far.factor_at(15.0, 15.1) == pytest.approx(1.0)


def test_ticking_samples_inside_a_long_op_and_restores_the_signal():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    ref = speed.Speed("complex")
    with ref.ticking():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 5 * speed.EVERY:
            pass
        t1 = time.perf_counter()
    assert len(ref.bursts) >= 3
    assert ref.clean(t1) - ref.clean(t0) == pytest.approx(t1 - t0 - sum(ref.bursts), abs=1e-9)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
