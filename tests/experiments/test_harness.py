"""Unit tests for the parallel experiment harness.

Multi-worker sweeps run through a throwaway broker queue served by
local worker processes; ``jobs=1`` runs in-process.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.errors import ExperimentError, TaskTimeoutError
from repro.experiments.harness import (
    derive_seed,
    resolve_timeout,
    run_tasks,
    worker_count,
)


# Module level so the parallel path can pickle them by reference.
def _square(task):
    return task * task


def _seeded_pair(task):
    base, label = task
    return (label, derive_seed(base, label))


def _fail_on_three(task):
    if task == 3:
        raise ValueError("task three is broken")
    return task


def _sleep_if_flagged(task):
    """Hang on the first attempt, return on the retry (flag file)."""
    value, flag_path = task
    if not os.path.exists(flag_path):
        with open(flag_path, "w") as fh:
            fh.write("first attempt")
        time.sleep(30.0)
    return value


def _die_once(task):
    """SIGKILL the worker on the first attempt (flag file), then return."""
    value, flag_path = task
    if not os.path.exists(flag_path):
        with open(flag_path, "w") as fh:
            fh.write("first attempt")
        os.kill(os.getpid(), signal.SIGKILL)
    return value


def _sleep_forever(task):
    time.sleep(30.0)
    return task


def _die_in_worker(task):
    """SIGKILL the worker; return normally when rerun in-process."""
    if task == "victim" and multiprocessing.current_process().name != (
        "MainProcess"
    ):
        os.kill(os.getpid(), signal.SIGKILL)
    return f"done:{task}"


# -- worker_count ---------------------------------------------------------------


def test_explicit_jobs_wins_over_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "7")
    assert worker_count(3) == 3


def test_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert worker_count() == 5


def test_env_must_be_integer(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "many")
    with pytest.raises(ExperimentError):
        worker_count()


def test_invalid_env_values_are_named_in_the_error(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", " 2.5 ")
    with pytest.raises(ExperimentError) as jobs_error:
        worker_count()
    assert str(jobs_error.value) == "REPRO_JOBS='2.5' is not an integer"
    monkeypatch.setenv("REPRO_TASK_TIMEOUT", "soon")
    with pytest.raises(ExperimentError) as timeout_error:
        resolve_timeout(None)
    assert str(timeout_error.value) == "REPRO_TASK_TIMEOUT='soon' is not a number"


def test_blank_env_values_mean_unset(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "  ")
    monkeypatch.setenv("REPRO_TASK_TIMEOUT", "")
    assert worker_count() == max(1, os.cpu_count() or 1)
    assert resolve_timeout(None) is None


def test_default_is_at_least_one(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert worker_count() >= 1


@pytest.mark.parametrize("jobs", [0, -4])
def test_nonpositive_clamps_to_one(jobs):
    assert worker_count(jobs) == 1


# -- derive_seed ----------------------------------------------------------------


def test_derive_seed_deterministic():
    assert derive_seed(101, "fig6", 0.05) == derive_seed(101, "fig6", 0.05)


def test_derive_seed_varies_with_parts():
    seeds = {
        derive_seed(101),
        derive_seed(101, "fig6"),
        derive_seed(101, "fig6", 0.05),
        derive_seed(101, "fig6", 0.08),
        derive_seed(102, "fig6", 0.05),
    }
    assert len(seeds) == 5


def test_derive_seed_fits_in_63_bits():
    for part in range(50):
        assert 0 <= derive_seed(0, part) < 2**63


# -- run_tasks ------------------------------------------------------------------


def test_serial_preserves_order():
    assert run_tasks(_square, [3, 1, 4, 1, 5], jobs=1) == [9, 1, 16, 1, 25]


def test_empty_tasks():
    assert run_tasks(_square, [], jobs=4) == []


def test_serial_logs_labels():
    lines = []
    run_tasks(
        _square, [2, 3], jobs=1, log=lines.append, labels=["two", "three"]
    )
    assert lines == ["[1/2] two", "[2/2] three"]


def test_label_count_mismatch_rejected():
    with pytest.raises(ExperimentError):
        run_tasks(_square, [1, 2], jobs=1, labels=["only-one"])


def test_parallel_matches_serial():
    tasks = list(range(13))
    assert run_tasks(_square, tasks, jobs=4) == run_tasks(
        _square, tasks, jobs=1
    )


def test_parallel_logs_every_task():
    lines = []
    run_tasks(_square, [1, 2, 3, 4, 5], jobs=2, log=lines.append)
    assert len(lines) == 5
    assert sorted(line.split("]")[0] for line in lines) == [
        f"[{i}/5" for i in range(1, 6)
    ]


def test_parallel_seed_derivation_matches_serial():
    tasks = [(101, f"point-{i}") for i in range(8)]
    assert run_tasks(_seeded_pair, tasks, jobs=3) == run_tasks(
        _seeded_pair, tasks, jobs=1
    )


@pytest.mark.parametrize("jobs", [1, 4])
def test_worker_exception_propagates(jobs):
    with pytest.raises(ValueError, match="task three"):
        run_tasks(_fail_on_three, [1, 2, 3, 4], jobs=jobs)


def test_local_workers_capped_at_task_count(monkeypatch):
    """A sweep starts no more worker processes than it has tasks."""
    started = []
    start = multiprocessing.process.BaseProcess.start

    def counting_start(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(
        multiprocessing.process.BaseProcess, "start", counting_start
    )
    assert run_tasks(_square, [1, 2], jobs=8) == [1, 4]
    assert len(started) == 2


def test_env_drives_run_tasks(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "2")
    assert run_tasks(_square, [5, 6], log=None) == [25, 36]


# -- timeouts, retries, fallback ------------------------------------------------


def test_invalid_timeout_and_retries_rejected():
    with pytest.raises(ExperimentError, match="timeout"):
        run_tasks(_square, [1], jobs=1, timeout=0.0)


def test_timeout_raises_when_retries_exhausted():
    # Two tasks so worker processes run them (a single task collapses to
    # the serial path, where a hung call cannot be interrupted).  The
    # timed-out tasks are quarantined and raise — never rescued
    # serially, which would hang the caller on a call that never
    # returns.
    with pytest.raises(TaskTimeoutError, match="exceeded"):
        run_tasks(
            _sleep_forever,
            ["hung-a", "hung-b"],
            jobs=2,
            timeout=0.3,
            labels=["hung-a", "hung-b"],
        )


def test_timeout_retry_recovers(tmp_path):
    """First attempt hangs; its worker reports the timeout and dies, and
    the re-offered attempt returns promptly."""
    flag = str(tmp_path / "attempted.flag")
    steady = str(tmp_path / "steady.flag")
    open(steady, "w").close()  # pre-flagged: returns immediately
    lines = []
    results = run_tasks(
        _sleep_if_flagged,
        [(7, flag), (8, steady)],
        jobs=2,
        timeout=1.0,
        log=lines.append,
        labels=["flaky", "steady"],
    )
    assert results == [7, 8]
    assert any("worker" in line and "died" in line for line in lines)


def test_timeout_leaves_fast_tasks_untouched():
    results = run_tasks(_square, list(range(8)), jobs=4, timeout=60.0)
    assert results == [i * i for i in range(8)]


def test_dead_worker_falls_back_to_serial():
    """A task that SIGKILLs every worker it runs on is quarantined after
    its attempt budget; the parent reruns it serially and the sweep
    completes."""
    tasks = ["a", "victim", "b", "c"]
    lines = []
    results = run_tasks(_die_in_worker, tasks, jobs=2, log=lines.append)
    assert results == [f"done:{task}" for task in tasks]
    assert any("serially" in line for line in lines)


def test_sigkilled_worker_does_not_wait_out_the_lease(tmp_path):
    """A local worker killed mid-task is blamed the moment the parent
    sees it die: its lease is expired at once instead of after the
    default 30 s TTL, so the sweep finishes promptly."""
    flag = str(tmp_path / "victim.flag")
    steady = str(tmp_path / "steady.flag")
    open(steady, "w").close()  # pre-flagged: returns immediately
    lines = []
    start = time.monotonic()
    results = run_tasks(
        _die_once,
        [(1, flag), (2, steady), (3, steady)],
        jobs=2,
        log=lines.append,
    )
    assert results == [1, 2, 3]
    assert time.monotonic() - start < 10.0
    assert any("died" in line for line in lines)
    assert not any("rescue" in line for line in lines)


def test_worker_dying_during_liveness_check_is_still_blamed(
    tmp_path, monkeypatch
):
    """A worker whose death lands while the supervisor is checking
    which workers are alive is still blamed at once, not dropped from
    supervision to wait out the 30 s lease TTL unlogged.  Slowing each
    liveness check widens that window: the sweep wakes on the worker's
    exit, usually just before the kernel lets it be reaped."""
    is_alive = multiprocessing.process.BaseProcess.is_alive

    def slow_is_alive(self):
        alive = is_alive(self)
        time.sleep(0.05)
        return alive

    monkeypatch.setattr(
        multiprocessing.process.BaseProcess, "is_alive", slow_is_alive
    )
    flag = str(tmp_path / "victim.flag")
    steady = str(tmp_path / "steady.flag")
    open(steady, "w").close()  # pre-flagged: returns immediately
    lines = []
    start = time.monotonic()
    results = run_tasks(
        _die_once,
        [(1, flag), (2, steady), (3, steady)],
        jobs=2,
        log=lines.append,
    )
    assert results == [1, 2, 3]
    assert time.monotonic() - start < 10.0
    assert any("died" in line for line in lines)


# -- straggler reclamation --------------------------------------------------


def test_straggler_is_killed_and_pool_rebuilt(tmp_path):
    """A worker hung past the deadline kills itself (its slot would
    otherwise stay occupied for the full 30 s sleep) and a fresh worker
    is started for the retry."""
    flag = str(tmp_path / "straggler.flag")
    fast = str(tmp_path / "fast.flag")
    open(fast, "w").close()  # pre-flagged: returns immediately
    lines = []
    start = time.monotonic()
    results = run_tasks(
        _sleep_if_flagged,
        [(1, flag), (2, fast), (3, fast)],
        jobs=2,
        timeout=1.0,
        log=lines.append,
        labels=["straggler", "fast-a", "fast-b"],
    )
    assert results == [1, 2, 3]
    assert any("worker" in line and "died" in line for line in lines)
    assert any("respawned a local worker" in line for line in lines)
    # Reclaimed at the deadline, nowhere near the straggler's 30 s sleep.
    assert time.monotonic() - start < 20.0


# -- spawn-started workers --------------------------------------------------


def _default_cache_entries(task):
    from repro.tuning.pipeline import default_cache

    return default_cache().stats()["entries"]


def test_explicit_fork_start_method(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    tasks = list(range(9))
    assert run_tasks(_square, tasks, jobs=3, start_method="fork") == [
        i * i for i in tasks
    ]


def test_spawn_workers_receive_warm_cache():
    """Spawned workers don't inherit memory; the harness ships the
    parent's pipeline-cache entries to each worker at start-up."""
    from repro.tuning.pipeline import default_cache, tune_program
    from tests.conftest import make_phased_program

    program, spec = make_phased_program(outer=4)
    tune_program(program, spec=spec)  # warm the process-wide cache
    parent_entries = default_cache().stats()["entries"]
    assert parent_entries > 0
    counts = run_tasks(
        _default_cache_entries, [0, 1, 2], jobs=2, start_method="spawn"
    )
    assert all(count >= parent_entries for count in counts)
