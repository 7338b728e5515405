"""Broker race and chaos tests: real clocks, real processes, SIGKILL.

``test_broker.py`` drives the protocol with injected timestamps; this
file runs the scenarios for real — two workers fighting over a lease
at TTL expiry, a worker SIGKILL'd mid-heartbeat whose task is
reclaimed, the acceptance chaos drill (kill one of two workers
mid-sweep and still finish byte-identical), and a Hypothesis property
test that *any* interleaving of duplicate completions yields one
canonical result set.

Real-clock tests keep every window wide relative to scheduler jitter
(lease TTLs of hundreds of milliseconds, sleeps well past them) so
they stay deterministic on slow CI hosts.
"""

import hashlib
import multiprocessing
import os
import pathlib
import pickle
import signal
import threading
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.broker import Broker, Lease, task_key, worker_loop


# Module level so broker payloads and fork children pickle them by
# reference.
def _square(task):
    return task * task


def _nap_square(task):
    value, seconds = task
    time.sleep(seconds)
    return value * value


def _slow_first_attempt(task):
    """Sleeps forever on the first attempt (to be SIGKILL'd mid-task),
    returns instantly on every later one."""
    value, marker_dir = task
    marker = pathlib.Path(marker_dir) / f"slow-{value}"
    if not marker.exists():
        marker.write_text("1")
        time.sleep(120.0)
    return value * value


def _worker_process(directory, lease_ttl):
    worker_loop(directory, lease_ttl=lease_ttl, backoff_base=0.0)


# -- real-clock lease race --------------------------------------------------


def test_two_workers_race_one_lease_at_expiry(tmp_path):
    """Worker A claims and stalls (no heartbeat); worker B claims the
    same task after the TTL.  Both then complete: exactly one recording
    wins and the replay is canonical."""
    broker = Broker(tmp_path, lease_ttl=0.3, backoff_base=0.0)
    sweep = broker.enqueue(_square, [7])
    stalled = broker.claim("stalled")
    assert broker.claim("rival") is None  # lease still live
    time.sleep(0.5)
    rival = broker.claim("rival")  # expired: reclaimed and re-leased
    assert rival is not None and rival.attempt == 2
    outcomes = [
        broker.complete(rival, 49),
        broker.complete(stalled, 49),  # late, after losing the lease
    ]
    assert outcomes == [True, False]
    assert broker.replay(sweep) == {0: 49}
    assert len(list(broker.results_dir.glob("*.pkl"))) == 1


def test_concurrent_completions_record_exactly_once(tmp_path):
    """Eight threads completing the same content key simultaneously:
    the INSERT OR IGNORE picks exactly one canonical recording."""
    broker = Broker(tmp_path, lease_ttl=5.0)
    sweep = broker.enqueue(_square, [6])
    lease = broker.claim("w0")
    outcomes = []
    lock = threading.Lock()

    def complete(worker):
        dup = Lease(
            lease.sweep, lease.index, lease.key, lease.label,
            lease.payload, 1, lease.deadline, worker,
        )
        recorded = broker.complete(dup, 36)
        with lock:
            outcomes.append(recorded)

    threads = [
        threading.Thread(target=complete, args=(f"w{i}",)) for i in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert outcomes.count(True) == 1 and outcomes.count(False) == 7
    assert broker.replay(sweep) == {0: 36}


# -- SIGKILL recovery -------------------------------------------------------


def test_sigkill_mid_heartbeat_task_is_reclaimed(tmp_path):
    """A worker SIGKILL'd while holding a lease (heartbeat thread and
    all) loses it at TTL expiry; the next worker completes the task."""
    broker = Broker(tmp_path, lease_ttl=0.4, backoff_base=0.0)
    sweep = broker.enqueue(
        _slow_first_attempt, [(9, str(tmp_path))], labels=["victim"]
    )
    proc = multiprocessing.Process(
        target=_worker_process, args=(str(tmp_path), 0.4)
    )
    proc.start()
    try:
        deadline = time.time() + 30.0
        while broker.counts(sweep)["leased"] != 1:
            assert time.time() < deadline, "worker never claimed the task"
            time.sleep(0.05)
        os.kill(proc.pid, signal.SIGKILL)
    finally:
        proc.join(timeout=10.0)
    # The dead worker's lease expires; draining in-process reclaims the
    # task (marker file now present, so the retry returns instantly).
    completed = worker_loop(
        tmp_path, worker="rescuer", lease_ttl=0.4, backoff_base=0.0
    )
    assert completed == 1
    assert broker.replay(sweep) == {0: 81}
    assert broker.quarantined(sweep) == []
    kinds = [row[1] for row in broker.events(sweep)]
    assert "reclaim" in kinds


def test_chaos_kill_one_of_two_workers_mid_sweep(tmp_path):
    """The acceptance chaos drill: two workers serve a sweep, one is
    SIGKILL'd mid-run, and the sweep still completes with results
    byte-identical to a serial computation."""
    broker = Broker(tmp_path, lease_ttl=0.8, backoff_base=0.0)
    tasks = [(i, 0.15) for i in range(8)]
    sweep = broker.enqueue(_nap_square, tasks)
    procs = [
        multiprocessing.Process(
            target=_worker_process, args=(str(tmp_path), 0.8)
        )
        for _ in range(2)
    ]
    for proc in procs:
        proc.start()
    try:
        time.sleep(0.4)  # both workers mid-task
        os.kill(procs[0].pid, signal.SIGKILL)
        procs[1].join(timeout=60.0)
        assert not procs[1].is_alive(), "surviving worker never drained"
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=10.0)
    assert broker.settled(sweep)
    assert broker.quarantined(sweep) == []
    expected = {i: value * value for i, (value, _nap) in enumerate(tasks)}
    assert broker.replay(sweep) == expected
    # Byte-identical, not just equal: recorded digests match the
    # serial pickles exactly.
    digests = dict(broker._conn().execute(
        "SELECT label, sha256 FROM results WHERE sweep = ?", (sweep,)
    ).fetchall())
    for i, (value, nap) in enumerate(tasks):
        want = hashlib.sha256(
            pickle.dumps(value * value, protocol=pickle.HIGHEST_PROTOCOL)
        ).hexdigest()
        assert digests[repr((value, nap))] == want


# -- property: completion interleavings -------------------------------------


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_any_completion_interleaving_is_canonical(tmp_path_factory, data):
    """Any interleaving of (possibly duplicate) completions from any
    mix of workers yields one canonical result set: exactly one
    recording per content key, and a full, correct replay."""
    tmp_path = tmp_path_factory.mktemp("interleave")
    broker = Broker(tmp_path, lease_ttl=60.0)
    tasks = [1, 2, 3]
    sweep = broker.enqueue(_square, tasks)
    keys = [task_key(_square, task) for task in tasks]
    # Every task completes at least once; beyond that, any number of
    # duplicate completions from either worker, in any order.
    ops = list(enumerate(tasks)) + data.draw(
        st.lists(
            st.sampled_from(list(enumerate(tasks))), min_size=0, max_size=9
        )
    )
    order = data.draw(st.permutations(ops))
    workers = data.draw(
        st.lists(
            st.sampled_from(["w1", "w2"]),
            min_size=len(order),
            max_size=len(order),
        )
    )
    recorded = 0
    for (idx, task), worker in zip(order, workers):
        dup = Lease(
            sweep, idx, keys[idx], repr(task), b"", 1, time.time() + 60,
            worker,
        )
        recorded += broker.complete(dup, task * task)
    assert recorded == len(tasks)  # one canonical recording per key
    assert broker.replay(sweep) == {i: t * t for i, t in enumerate(tasks)}
    assert broker.settled(sweep)
    broker.close()
