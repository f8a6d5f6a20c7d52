"""The certified path loads neither mpmath nor the oracle.

Run in a fresh interpreter: the test process itself has mpmath loaded.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import gammatheta

_SCRIPT = r"""
import contextlib, io, sys
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
assert "mpmath" not in sys.modules, "mpmath loaded on the certified path"
assert type(sys.modules["gammatheta.oracle"]).__name__ == "_LazyModule"

value = gammatheta.oracle_remainder(3 + 1j, 2, "stirling", 15)
assert abs(complex(value)) > 0
assert "mpmath" in sys.modules

namespace = {}
exec("from gammatheta import *", namespace)
missing = [name for name in gammatheta.__all__ if name not in namespace]
assert not missing, missing
print("ok")
"""


def test_certified_path_runs_without_mpmath_and_the_oracle_loads_on_use():
    src = str(Path(gammatheta.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
