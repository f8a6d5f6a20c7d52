"""Spans around the package's public functions, taken from outside.

``Tracer.install`` rebinds each traced public function in every loaded
``gammatheta`` module that holds it (the defining module, the modules that
imported it by name, and the package namespace), so calls between modules
are seen too.  ``Tracer.remove`` puts every original back.  Nothing in the
package's own files changes.

A span is ``(name, start, end, parent, op, info)``: ``parent`` is the index
of the enclosing span or -1, ``op`` the id of the benchmark operation that
caused it, and ``info`` a small count read from the call's arguments or
result (terms summed, candidates scanned, bound kind, cache hit).
"""
from __future__ import annotations

import sys
import time

#: span name -> (module, attribute); methods are given as "Class.method".
TARGETS = {
    "lngamma.eval_lngamma": ("gammatheta.lngamma", "eval_lngamma"),
    "lngamma.eval_lngamma_half": ("gammatheta.lngamma", "eval_lngamma_half"),
    "lngamma.choose_k": ("gammatheta.lngamma", "choose_k"),
    "bounds.best_bound": ("gammatheta.bounds", "best_bound"),
    "bounds.applicable_bounds": ("gammatheta.bounds", "applicable_bounds"),
    "series.partial_sum": ("gammatheta.series", "partial_sum"),
    "series.k_min": ("gammatheta.series", "k_min"),
    "theta.eval_theta": ("gammatheta.theta", "eval_theta"),
    "oracle.oracle_lngamma": ("gammatheta.oracle", "oracle_lngamma"),
    "oracle.oracle_remainder": ("gammatheta.oracle", "oracle_remainder"),
    "oracle.oracle_theta_remainder": ("gammatheta.oracle", "oracle_theta_remainder"),
    "oracle.theta_series_value": ("gammatheta.oracle", "theta_series_value"),
    "cli.main": ("gammatheta.cli", "main"),
    "cli.Emitter.emit": ("gammatheta.cli", "Emitter.emit"),
}


def _info(name: str, args: tuple, result):
    """The count a span carries, from the call's arguments or result."""
    if name == "lngamma.choose_k":
        return result.k
    if name == "series.partial_sum":
        return args[1] if len(args) > 1 else None
    if name == "bounds.applicable_bounds":
        return len(result)
    if name == "bounds.best_bound":
        return result.kind.value
    return None


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._rebound: list[tuple] = []

    # -- span recording ---------------------------------------------------

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        oracle = sys.modules.get("gammatheta.oracle")
        lngamma_cache = getattr(oracle, "_lngamma_cache", None)
        is_oracle_lngamma = name == "oracle.oracle_lngamma"

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            before = len(lngamma_cache) if is_oracle_lngamma else 0
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                info = None
                if is_oracle_lngamma:
                    info = int(result is not None and len(lngamma_cache) == before)
                elif result is not None:
                    info = _info(name, args, result)
                spans[index] = (name, start, end, parent, self.op, info)

        return traced

    # -- rebinding ----------------------------------------------------------

    def install(self) -> None:
        """Rebind every target in every loaded gammatheta module."""
        if self._rebound:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gammatheta" or n.startswith("gammatheta."))]
        for name, (modname, attr) in TARGETS.items():
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._rebound.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebound.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def remove(self) -> None:
        """Put back every original binding."""
        while self._rebound:
            holder, key, orig = self._rebound.pop()
            setattr(holder, key, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (children's intervals are merged first)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, op, info in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, op, info) in enumerate(spans):
        covered = 0.0
        cur_s = cur_e = None
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((end - start) - covered)
    return out


def inclusive_time(spans: list[tuple], name: str) -> float:
    """Total time in spans of ``name``, counting a recursive call once."""
    total = 0.0
    for name_i, start, end, parent, op, info in spans:
        if name_i != name:
            continue
        p = parent
        nested = False
        while p >= 0:
            if spans[p][0] == name:
                nested = True
                break
            p = spans[p][3]
        if not nested:
            total += end - start
    return total


def per_layer(spans: list[tuple], ops: int, results: list) -> dict[str, float]:
    """Per-layer metrics of a traced window of ``ops`` operations.

    ``results`` holds the window's successful outcomes (value, radius and
    the structural fields k, shifts, bound kind, flags).
    """
    selfs = self_times(spans)
    n = max(ops, 1)
    count: dict[str, int] = {}
    self_sum: dict[str, float] = {}
    for (name, *_), st in zip(spans, selfs):
        count[name] = count.get(name, 0) + 1
        self_sum[name] = self_sum.get(name, 0.0) + st

    def ms(name: str) -> float:
        return 1e3 * inclusive_time(spans, name) / n

    def info_sum(name: str) -> int:
        return sum(s[5] or 0 for s in spans if s[0] == name)

    evaluated = info_sum("bounds.applicable_bounds")
    evals = ("lngamma.eval_lngamma", "lngamma.eval_lngamma_half", "theta.eval_theta")
    used = sum(
        1 for s in spans
        if s[0] == "bounds.best_bound" and s[3] >= 0 and spans[s[3]][0] in evals
    )
    kinds = [s[5] for s in spans if s[0] == "bounds.best_bound"]
    lngamma_kinds = [k for k in kinds if k is not None and not k.startswith("theta")]
    lngamma_results = [r for r in results if len(r.shape) == 4 and r.shape[1] is not None]
    oracle_calls = count.get("oracle.oracle_lngamma", 0)
    return {
        "lngamma.choose_k_ms": ms("lngamma.choose_k"),
        "lngamma.choose_k_candidates_per_op": info_sum("lngamma.choose_k") / n,
        "lngamma.eval_self_ms": 1e3 * (
            self_sum.get("lngamma.eval_lngamma", 0.0)
            + self_sum.get("lngamma.eval_lngamma_half", 0.0)
        ) / n,
        "lngamma.shifts_per_op": sum(r.shape[1] for r in lngamma_results) / n,
        "lngamma.reflected_share": (
            sum("REFLECTED" in r.shape[3] for r in lngamma_results) / len(lngamma_results)
            if lngamma_results else 0.0
        ),
        "bounds.best_bound_ms": ms("bounds.best_bound"),
        "bounds.best_bound_calls_per_op": count.get("bounds.best_bound", 0) / n,
        "bounds.useful_ratio": used / evaluated if evaluated else 0.0,
        "bounds.ck_quadratic_win_share": (
            lngamma_kinds.count("ck-quadratic") / len(lngamma_kinds) if lngamma_kinds else 0.0
        ),
        "series.partial_sum_ms": ms("series.partial_sum"),
        "series.terms_per_op": info_sum("series.partial_sum") / n,
        "series.k_min_ms": ms("series.k_min"),
        "theta.eval_self_ms": 1e3 * self_sum.get("theta.eval_theta", 0.0) / n,
        "oracle.lngamma_ms": ms("oracle.oracle_lngamma"),
        "oracle.lngamma_calls_per_op": oracle_calls / n,
        "oracle.lngamma_cache_hit_ratio": (
            info_sum("oracle.oracle_lngamma") / oracle_calls if oracle_calls else 0.0
        ),
        "oracle.remainder_b_self_ms": 1e3 * self_sum.get("oracle.oracle_remainder", 0.0) / n,
        "oracle.theta_series_value_ms": ms("oracle.theta_series_value"),
        "cli.main_ms": ms("cli.main"),
    }
