"""CLI argument tests: ``python -m repro.experiments`` as a subprocess.

The experiments CLI takes experiment names plus two pseudo-names,
``resume`` and ``telemetry``; anything else is rejected with a message
listing every choice.
"""

import os
import subprocess
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _cli(*argv):
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", *argv],
        capture_output=True, text=True, timeout=120, env=env,
    )


def test_unknown_experiment_message_lists_verbs(tmp_path):
    out = _cli("no-such-thing")
    assert out.returncode != 0
    assert "'resume'" in out.stderr and "'telemetry'" in out.stderr
    for gone in ("enqueue", "work", "status", "bless"):
        assert f"'{gone}'" not in out.stderr
