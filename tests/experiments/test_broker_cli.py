"""CLI verb tests: ``enqueue`` / ``work`` / ``status`` / ``bless``.

Each test drives ``python -m repro.experiments <verb>`` as a real
subprocess against a broker directory prepared through the library
API, so the argument plumbing, environment handling, and report
formatting are exercised exactly as an operator would hit them.  The
sweeps use ``builtins.abs`` as the point function — importable by any
worker subprocess without test-module path games.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

from repro.experiments.broker import Broker, worker_loop

_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _cli(*argv, env=None):
    merged = dict(os.environ, PYTHONPATH=_SRC)
    merged.pop("REPRO_BROKER_DIR", None)
    merged.pop("REPRO_JOBS", None)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", *argv],
        capture_output=True, text=True, timeout=120, env=merged,
    )


def test_status_on_empty_broker(tmp_path):
    out = _cli("status", str(tmp_path))
    assert out.returncode == 0
    assert "empty broker" in out.stdout


def test_status_on_missing_directory_fails_and_creates_nothing(tmp_path):
    missing = tmp_path / "no-such-queue"
    out = _cli("status", str(missing))
    assert out.returncode != 0
    assert str(missing) in out.stderr
    assert not missing.exists()
    assert list(tmp_path.iterdir()) == []


def test_bless_on_missing_directory_fails_and_creates_nothing(tmp_path):
    missing = tmp_path / "no-such-queue"
    out = _cli("bless", str(missing))
    assert out.returncode == 1
    assert f"bless: no broker directory {missing}" in out.stderr
    assert not missing.exists()
    assert list(tmp_path.iterdir()) == []


def test_work_drains_and_status_reports_settled(tmp_path):
    broker = Broker(tmp_path)
    sweep = broker.enqueue(abs, [-3, -4, 5])
    out = _cli("work", str(tmp_path), "--jobs", "1")
    assert out.returncode == 0, out.stderr
    assert "worker drained: 3 task(s) completed" in out.stdout
    assert broker.replay(sweep) == {0: 3, 1: 4, 2: 5}
    status = _cli("status", str(tmp_path))
    assert f"{sweep} [settled]" in status.stdout
    assert "3/3 done" in status.stdout


def test_work_task_timeout_zero_means_no_timeout(tmp_path):
    """``work --task-timeout 0`` means no timeout, as on the main CLI:
    the worker drains the queue instead of SIGKILLing itself at each
    claim."""
    broker = Broker(tmp_path)
    sweep = broker.enqueue(time.sleep, [0.2, 0.3])
    out = _cli("work", str(tmp_path), "--jobs", "1", "--task-timeout", "0")
    assert out.returncode == 0, out.stderr
    assert "worker drained: 2 task(s) completed" in out.stdout
    assert broker.replay(sweep) == {0: None, 1: None}


def test_work_honors_worker_host_jobs_env(tmp_path):
    """Satellite: the worker count comes from the *worker* host's
    REPRO_JOBS, never from anything the enqueuing host wrote."""
    Broker(tmp_path).enqueue(abs, [-1, -2])
    out = _cli("work", str(tmp_path), env={"REPRO_JOBS": "2"})
    assert out.returncode == 0, out.stderr
    assert "2 worker(s) drained" in out.stdout


def test_bless_then_status_reports_drift_state(tmp_path):
    broker = Broker(tmp_path)
    broker.enqueue(abs, [-7, 7], labels=["n7", "p7"])
    worker_loop(tmp_path, worker="w1")
    blessed = _cli("bless", str(tmp_path))
    assert blessed.returncode == 0
    assert "blessed 2 result(s)" in blessed.stdout
    status = _cli("status", str(tmp_path))
    assert "match golden" in status.stdout


def test_bless_skips_running_sweeps(tmp_path):
    broker = Broker(tmp_path)
    broker.enqueue(abs, [-9])
    broker.claim("busy")  # leave the sweep mid-flight
    out = _cli("bless", str(tmp_path))
    assert "still running" in out.stdout
    assert "nothing to bless" in out.stdout


def test_status_reports_quarantine(tmp_path):
    broker = Broker(tmp_path, max_attempts=1)
    sweep = broker.enqueue(abs, [-5], labels=["victim"])
    lease = broker.claim("w1")
    broker.fail(lease, ValueError("poisoned"), now=None)
    out = _cli("status", str(tmp_path))
    assert f"QUARANTINED {sweep}[0] victim" in out.stdout
    assert "poisoned" in out.stdout


def test_unknown_experiment_message_lists_verbs(tmp_path):
    out = _cli("no-such-thing")
    assert out.returncode != 0
    assert "enqueue" in out.stderr and "status" in out.stderr
