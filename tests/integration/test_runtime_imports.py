"""The runtime imports no third-party package.

numpy is a test extra only (the oracles that pin the scalar k-means and
cost columns to the array formulation use it); importing it would cost
every process ~13 MB resident.  A fresh interpreter imports every
``repro`` module and runs the experiments CLI's ``--help``, then reports
whether numpy got loaded on the way.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

_PROBE = """
import contextlib, importlib, io, pkgutil, runpy, sys
import repro
names = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)
sys.argv = ["repro.experiments", "--help"]
with contextlib.redirect_stdout(io.StringIO()) as out:
    try:
        runpy.run_module("repro.experiments", run_name="__main__", alter_sys=True)
    except SystemExit as stop:
        assert stop.code in (None, 0), stop.code
assert "usage" in out.getvalue(), out.getvalue()
print(len(names))
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""


def test_runtime_never_imports_numpy():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    count, loaded = done.stdout.splitlines()
    assert int(count) > 50  # every module really was walked
    assert loaded == "[]"
