"""Checks that need a fresh interpreter: the certified path loads neither
mpmath, the oracle nor the heavy standard modules, every name in the
package's and each module's ``__all__`` resolves, a cold least-term scan
grows the Bernoulli table once, and the import builds no table or cached
constant (every CLI record pays for the import).  A scan of the source
checks that only the oracle imports mpmath or takes its lock.

The test process itself has all of these loaded and its table grown.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import gammatheta

_SCRIPT = r"""
import sys; preloaded = set(sys.modules)
import contextlib, io
import gammatheta, gammatheta.cli
from gammatheta import cli

records = (
    ["lngamma", "--re", "6", "--im", "1"],
    ["lngamma", "--re", "2.5", "--im", "-3", "--half"],
    ["lngamma", "--re", "0.5", "--im", "40", "--terms", "7"],
    ["lngamma", "--re=-3.25", "--im", "0.35"],
    ["theta", "--t", "59"],
)
for argv in records:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0, argv
    assert out.getvalue().count("\n") == 1, argv
assert gammatheta.c_k(5) > 0.1
heavy = {"dataclasses", "inspect", "typing", "mpmath"}
loaded = sorted(heavy & (set(sys.modules) - preloaded))
assert not loaded, f"the certified path loaded {loaded}"
assert type(sys.modules["gammatheta.oracle"]).__name__ == "_LazyModule"

value = gammatheta.oracle_remainder(3 + 1j, 2, "stirling", 15)
assert abs(complex(value)) > 0
assert "mpmath" in sys.modules

import importlib, pkgutil
for module in ["gammatheta"] + [
    f"gammatheta.{info.name}" for info in pkgutil.iter_modules(gammatheta.__path__)
]:
    namespace = {}
    exec(f"from {module} import *", namespace)
    public = importlib.import_module(module).__all__
    missing = [name for name in public if name not in namespace]
    assert not missing, (module, missing)
print("ok")
"""


_COLD_SCAN = r"""
from gammatheta import bernoulli
from gammatheta.theta import eval_theta

calls = []
step = bernoulli._tangent_step
bernoulli._tangent_step = lambda column: calls.append(len(column)) or step(column)
eval_theta(50.0)
# each index past T_1 is extended once, in order: one run of the recurrence
assert calls == list(range(1, len(bernoulli.shared_table()._even) - 1)), calls
print("ok")
"""


_IMPORT_STATE = r"""
import gammatheta, gammatheta.cli
from gammatheta import bernoulli, bounds, series

table = bernoulli.shared_table()
seeded = len(bernoulli.BernoulliTable()._even)
assert len(table._even) == seeded, "the import grew the Bernoulli table"
filled = [kind for kind, rows in series._ROWS.items() if len(rows) > 1]
filled += ["eta"] if bounds.eta.cache_info().currsize else []
assert not filled, f"the import built {filled}"
gammatheta.eval_lngamma(6 + 1j)
assert len(table._even) - 1 <= 8, len(table._even) - 1
print("ok")
"""


def _run_fresh(script: str) -> None:
    src = str(Path(gammatheta.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def _mpmath_uses(tree: ast.Module):
    """(enclosing function, line, what) for each import of mpmath and each
    definition or use of ``_MPMATH_LOCK`` in a module's tree."""
    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else where
            names = []
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""] + [alias.name for alias in child.names]
            elif isinstance(child, ast.Name):
                names = [child.id]
            elif isinstance(child, ast.Attribute):
                names = [child.attr]
            for name in names:
                if name == "_MPMATH_LOCK" or name.split(".")[0] == "mpmath":
                    yield where, child.lineno, name
            yield from walk(child, inner)
    return list(walk(tree, None))


def test_only_the_oracle_imports_mpmath_or_takes_its_lock():
    # cli._mpf_str formats an mpf the oracle returned and sets no precision.
    allowed = {("cli.py", "_mpf_str", "mpmath")}
    package = Path(gammatheta.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.name, where, line, name) for where, line, name in _mpmath_uses(tree)]
    assert any(entry[0] == "oracle.py" for entry in found)
    stray = [
        entry for entry in found
        if entry[0] != "oracle.py" and (entry[0], entry[1], entry[3]) not in allowed
    ]
    assert not stray, stray


def test_certified_path_runs_without_mpmath_and_the_oracle_loads_on_use():
    _run_fresh(_SCRIPT)


def test_cold_least_term_scan_runs_the_tangent_recurrence_once():
    _run_fresh(_COLD_SCAN)


def test_the_import_builds_no_table_and_a_first_call_only_what_it_needs():
    _run_fresh(_IMPORT_STATE)
