"""Durable-sweep tests: crash-safe ``run_tasks`` progress in a run dir.

Under :func:`~repro.experiments.harness.set_run_root` (the CLI's
``--run-dir``) every sweep runs through the broker queue at
``<run dir>/broker``.  Covers the record/replay contract there
(digest-verified result files, traced-shape filtering, first
completion wins), the ``run_tasks`` integration (finished tasks
replayed on rerun, missing ones recomputed, sweeps under one run root
resuming independently, per-task checkpoint directories), exact blame
of dead local workers, and the quarantine-then-rescue path of a task
that kills every worker it runs on.
"""

import multiprocessing
import os
import pathlib
import signal
import socket
import time

import pytest

from repro.experiments import harness
from repro.experiments.broker import Broker, Lease, task_key, worker_loop
from repro.experiments.harness import run_tasks
from repro.sim.checkpoint import TASK_CHECKPOINT_DIR_ENV
from repro.taxonomy import LEASE_EXPIRED, state_of


# Module level so workers can unpickle them by reference.
def _square(task):
    return task * task


def _counted_square(task):
    """Square *value*, leaving one marker file per call so tests can
    count recomputations across processes."""
    value, marker_dir = task
    name = f"{value}-{os.getpid()}-{time.monotonic_ns()}"
    (pathlib.Path(marker_dir) / name).write_text("called")
    return value * value


def _calls(marker_dir) -> int:
    return len(list(pathlib.Path(marker_dir).iterdir()))


def _checkpoint_dir_of(task):
    return os.environ.get(TASK_CHECKPOINT_DIR_ENV)


def _kill_twice(task):
    """SIGKILL the worker on the first two attempts, then succeed.

    Attempts are counted in a marker file so the count survives the
    worker's death; run in MainProcess the function must *not* kill
    (that would kill pytest).
    """
    value, marker_dir = task
    if value == "victim" and multiprocessing.current_process().name != (
        "MainProcess"
    ):
        marker = pathlib.Path(marker_dir) / "attempts"
        tries = int(marker.read_text()) if marker.exists() else 0
        marker.write_text(str(tries + 1))
        if tries < 2:
            os.kill(os.getpid(), signal.SIGKILL)
    return f"done:{value}"


def _kill_always(task):
    """SIGKILL every worker the victim runs on; in the parent, note the
    exported checkpoint directory and return normally."""
    value, marker_dir = task
    if value == "victim":
        marker = pathlib.Path(marker_dir)
        if multiprocessing.current_process().name != "MainProcess":
            attempts = marker / "attempts"
            tries = int(attempts.read_text()) if attempts.exists() else 0
            attempts.write_text(str(tries + 1))
            os.kill(os.getpid(), signal.SIGKILL)
        (marker / "rescue-ckpt").write_text(
            os.environ.get(TASK_CHECKPOINT_DIR_ENV, "")
        )
    return f"done:{value}"


@pytest.fixture
def run_root(tmp_path):
    root = tmp_path / "run"
    harness.set_run_root(root)
    try:
        yield root
    finally:
        harness.set_run_root(None)


def _only_sweep(root) -> tuple:
    broker = Broker(root / "broker")
    (row,) = broker.sweeps()
    return broker, row[0]


def _markers(tmp_path):
    path = tmp_path / "calls"
    path.mkdir(exist_ok=True)
    return str(path)


# -- record / replay in the run-dir queue ---------------------------------------


def test_record_and_replay_roundtrip(run_root):
    assert run_tasks(_square, [3, 4], jobs=1) == [9, 16]
    # A fresh instance reads the same state back from disk.
    broker, sweep = _only_sweep(run_root)
    assert broker.replay(sweep) == {0: 9, 1: 16}


def test_rerecord_keeps_first_result(tmp_path):
    """Results are recorded idempotently by content key: a second
    completion of the same task dedupes and the first value wins."""
    broker = Broker(tmp_path)
    sweep = broker.enqueue(_square, [2])
    lease = Lease(sweep, 0, task_key(_square, 2), "a", b"", 1, 0.0, "w1")
    assert broker.complete(lease, "first") is True
    assert broker.complete(lease, "second") is False
    assert Broker(tmp_path).replay(sweep) == {0: "first"}


def test_traced_shape_filtering(tmp_path):
    """Traced sweeps record ``(value, blob)`` wrappers under their own
    sweep id; replaying with the other tracing mode must not see them
    (wrong type)."""
    broker = Broker(tmp_path)
    plain = broker.enqueue(_square, [5])
    traced = broker.enqueue(_square, [5], traced=True)
    assert plain != traced
    key = task_key(_square, 5)
    broker.complete(Lease(plain, 0, key, "p", b"", 1, 0.0, "w"), 42)
    broker.complete(
        Lease(traced, 0, key, "t", b"", 1, 0.0, "w"), (43, b"blob"),
        traced=True,
    )
    assert broker.replay(plain) == {0: 42}
    assert broker.replay(plain, traced=True) == {}
    assert broker.replay(traced, traced=True) == {0: (43, b"blob")}


def test_fsync_off_still_records(tmp_path):
    """The throwaway queue's settings (no fsync) still record results a
    fresh instance can replay."""
    broker = Broker(tmp_path, fsync=False)
    assert broker.fsync is False
    sweep = broker.enqueue(_square, [7])
    lease = Lease(sweep, 0, task_key(_square, 7), "a", b"", 1, 0.0, "w")
    broker.complete(lease, 49)
    assert Broker(tmp_path).replay(sweep) == {0: 49}


def test_digest_mismatch_forces_rerun(run_root, tmp_path):
    calls = _markers(tmp_path)
    tasks = [(1, calls), (2, calls)]
    assert run_tasks(_counted_square, tasks, jobs=1) == [1, 4]
    key = task_key(_counted_square, tasks[1])
    (path,) = (run_root / "broker" / "results").glob(f"{key}-*.pkl")
    payload = bytearray(path.read_bytes())
    payload[len(payload) // 2] ^= 0x40
    path.write_bytes(bytes(payload))
    logs = []
    # The rotted result is never returned: that task alone recomputes.
    assert run_tasks(_counted_square, tasks, jobs=1, log=logs.append) == [1, 4]
    assert _calls(calls) == 3
    assert any("rescue" in line and "result missing" in line for line in logs)


def test_missing_result_file_forces_rerun(run_root, tmp_path):
    calls = _markers(tmp_path)
    tasks = [(1, calls), (2, calls)]
    assert run_tasks(_counted_square, tasks, jobs=1) == [1, 4]
    key = task_key(_counted_square, tasks[0])
    for path in (run_root / "broker" / "results").glob(f"{key}-*.pkl"):
        path.unlink()
    assert run_tasks(_counted_square, tasks, jobs=1) == [1, 4]
    assert _calls(calls) == 3


def test_crash_counts(run_root, tmp_path):
    """A SIGKILLed local worker is blamed exactly: the audit trail names
    its host:pid and the attempt counts against the task."""
    tasks = [("a", str(tmp_path)), ("victim", str(tmp_path)), ("b", str(tmp_path))]
    assert run_tasks(_kill_twice, tasks, jobs=2) == [
        "done:a", "done:victim", "done:b",
    ]
    broker, sweep = _only_sweep(run_root)
    reclaims = [
        (worker, detail)
        for _ts, kind, _sweep, idx, worker, detail in broker.events(sweep)
        if kind == "reclaim" and idx == 1
    ]
    assert [detail for _, detail in reclaims] == [
        "lease expired after attempt 1",
        "lease expired after attempt 2",
    ]
    assert all(worker.rpartition(":")[2].isdigit() for worker, _ in reclaims)


def test_checkpoint_dir_layout(run_root, tmp_path):
    """Under a run dir each task checkpoints into ``broker/ckpt/<key>``;
    the throwaway queue of a plain parallel sweep exports none."""
    dirs = run_tasks(_checkpoint_dir_of, ["a", "b"], jobs=2)
    assert dirs == [
        str(run_root / "broker" / "ckpt" / task_key(_checkpoint_dir_of, task))
        for task in ("a", "b")
    ]
    harness.set_run_root(None)
    assert run_tasks(_checkpoint_dir_of, ["a", "b"], jobs=2) == [None, None]


# -- run_tasks integration ------------------------------------------------------


def test_pool_sweep_skips_journaled_results(run_root, tmp_path):
    calls = _markers(tmp_path)
    tasks = [(i, calls) for i in range(1, 5)]
    out = run_tasks(_counted_square, tasks, jobs=2)
    assert out == [1, 4, 9, 16]
    assert _calls(calls) == 4
    logs = []
    again = run_tasks(_counted_square, tasks, jobs=2, log=logs.append)
    assert again == out
    assert _calls(calls) == 4  # nothing recomputed
    assert any("4 of 4" in line for line in logs)


def test_serial_sweep_skips_journaled_results(run_root, tmp_path):
    calls = _markers(tmp_path)
    tasks = [(5, calls), (6, calls)]
    assert run_tasks(_counted_square, tasks, jobs=1) == [25, 36]
    logs = []
    assert run_tasks(_counted_square, tasks, jobs=1, log=logs.append) == [25, 36]
    assert _calls(calls) == 2
    assert logs == ["broker: 2 of 2 task(s) already complete"]


def test_partial_journal_recomputes_only_missing(run_root):
    broker = Broker(run_root / "broker")
    sweep = broker.enqueue(_square, [1, 2, 3])
    broker.complete(
        Lease(sweep, 1, task_key(_square, 2), "pre", b"", 1, 0.0, "w"), 99
    )
    out = run_tasks(_square, [1, 2, 3], jobs=1)
    # Task 1's recorded value wins; the others were computed.
    assert out == [1, 99, 9]


def test_journal_path_accepts_plain_directory(tmp_path):
    harness.set_run_root(str(tmp_path / "j"))
    try:
        assert run_tasks(_square, [3], jobs=1) == [9]
    finally:
        harness.set_run_root(None)
    assert (tmp_path / "j" / "broker" / "queue.db").exists()


def test_worker_killing_task_quarantined_then_rescued(run_root, tmp_path):
    """A task that kills its worker on every attempt is quarantined
    after the attempt budget (each death blamed on that worker alone),
    then rerun serially in the parent with its checkpoint directory —
    and the sweep's results are correct."""
    tasks = [("a", str(tmp_path)), ("victim", str(tmp_path)), ("b", str(tmp_path))]
    logs = []
    out = run_tasks(_kill_always, tasks, jobs=2, log=logs.append)
    assert out == ["done:a", "done:victim", "done:b"]
    broker, sweep = _only_sweep(run_root)
    assert (tmp_path / "attempts").read_text() == str(broker.max_attempts)
    (reason,) = [
        detail
        for _ts, kind, _sweep, idx, _worker, detail in broker.events(sweep)
        if kind == "quarantine" and idx == 1
    ]
    assert state_of(reason) == LEASE_EXPIRED
    assert (tmp_path / "rescue-ckpt").read_text() == broker.checkpoint_dir(
        task_key(_kill_always, tasks[1])
    )
    assert any(line.startswith("[rescue 1/1] ") for line in logs)
    assert broker.replay(sweep) == dict(enumerate(out))


def test_resume_expires_leases_of_dead_local_workers(run_root):
    """An interrupted invocation leaves its workers' leases behind; the
    next sweep on this host expires those whose processes are gone
    instead of waiting out the default 30 s TTL."""
    broker = Broker(run_root / "broker")
    broker.enqueue(_square, [1, 2])
    gone = multiprocessing.Process(target=_square, args=(0,))
    gone.start()
    gone.join()
    assert broker.claim(f"{socket.gethostname()}:{gone.pid}") is not None
    start = time.monotonic()
    assert run_tasks(_square, [1, 2], jobs=2) == [1, 4]
    assert time.monotonic() - start < 10.0


def test_pool_death_without_journal_still_completes(tmp_path):
    """Without a run dir the throwaway queue survives worker deaths
    too: the re-offered attempt succeeds."""
    tasks = [("a", str(tmp_path)), ("victim", str(tmp_path))]
    assert run_tasks(_kill_twice, tasks, jobs=2) == ["done:a", "done:victim"]


# -- several sweeps under one run root ------------------------------------------


def test_run_root_numbers_sweeps(run_root, tmp_path):
    """Sweeps under one run root get content-derived ids in one queue,
    so they resume independently and in any order."""
    calls = _markers(tmp_path)
    first = [(1, calls)]
    second = [(2, calls), (3, calls)]
    assert run_tasks(_counted_square, first, jobs=1) == [1]
    assert run_tasks(_counted_square, second, jobs=1) == [4, 9]
    broker = Broker(run_root / "broker")
    sweeps = [row[0] for row in broker.sweeps()]
    assert len(sweeps) == 2
    # Forget the first sweep only: its rerun recomputes, the second
    # replays, whichever runs first.
    key = task_key(_counted_square, first[0])
    for path in (run_root / "broker" / "results").glob(f"{key}-*.pkl"):
        path.unlink()
    assert run_tasks(_counted_square, second, jobs=1) == [4, 9]
    assert run_tasks(_counted_square, first, jobs=1) == [1]
    assert _calls(calls) == 4


def test_run_root_off_by_default(tmp_path, monkeypatch):
    """Without a run root nothing outlives the sweep: the throwaway
    queue is deleted when run_tasks returns."""
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    assert run_tasks(_square, [1, 2], jobs=2) == [1, 4]
    assert run_tasks(_square, [1], jobs=1) == [1]
    assert list(tmp_path.iterdir()) == []


# -- a resumed task records the uninterrupted digest ---------------------------


class _Interrupted(Exception):
    pass


def test_resumed_task_records_the_uninterrupted_digest(tmp_path, monkeypatch):
    """A sweep task interrupted after its first checkpoint and resumed
    from it records the same result sha256 as an uninterrupted run."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_technique_point
    from repro.sim.checkpoint import CHECKPOINT_INTERVAL_ENV, CheckpointManager
    from repro.workloads.workload import Workload

    monkeypatch.setenv(CHECKPOINT_INTERVAL_ENV, "10")
    config = ExperimentConfig.quick()
    task = (config, "Loop[45]", Workload.random(config.slots, seed=1), None)

    def recorded(name):
        directory = tmp_path / name
        sweep = Broker(directory).enqueue(run_technique_point, [task])
        worker_loop(directory, backoff_base=0.0, poll_interval=0.01)
        broker = Broker(directory)
        assert broker.counts(sweep)["done"] == 1
        return broker._conn().execute(
            "SELECT label, key, sha256 FROM results WHERE sweep = ?",
            (sweep,),
        ).fetchall()

    uninterrupted = recorded("uninterrupted")

    save, latest_state = CheckpointManager.save, CheckpointManager.latest_state
    saves, resumed = [], []

    def save_once_then_stop(self, sim, at=None):
        path = save(self, sim, at)
        if not saves:
            saves.append(path)
            raise _Interrupted()
        return path

    def recording_latest_state(self):
        state = latest_state(self)
        resumed.append(state is not None)
        return state

    monkeypatch.setattr(CheckpointManager, "save", save_once_then_stop)
    monkeypatch.setattr(CheckpointManager, "latest_state", recording_latest_state)
    interrupted = recorded("interrupted")

    assert resumed == [False, True]  # the second attempt resumed
    assert interrupted == uninterrupted
