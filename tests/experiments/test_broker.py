"""Sweep-broker tests: the claim/lease protocol.

Covers the :class:`~repro.experiments.broker.Broker` state machine
(idempotent enqueue, FIFO atomic claims, lease expiry and reclamation,
exponential backoff, poison-task quarantine, idempotent completion),
the :func:`~repro.experiments.broker.worker_loop` drain semantics, and
``run_tasks`` over an explicit broker directory.

Every protocol test injects ``now=`` timestamps instead of sleeping,
so lease expiry and backoff windows are exercised deterministically.
The genuinely concurrent scenarios (real worker processes, SIGKILL)
live in ``test_broker_races.py``.
"""

import sqlite3
import time

import pytest

from repro.errors import BrokerError, ExperimentError, LeaseLostError
from repro.experiments import harness
from repro.experiments.broker import Broker, _Heartbeat, task_key, worker_loop
from repro.experiments.harness import run_tasks


# Module level so broker payloads can pickle them by reference.
def _square(task):
    return task * task


def _boom(task):
    raise ValueError(f"task {task} exploded")


def _flaky_square(task):
    """Fails on the first attempt per task, succeeds after (the marker
    directory arrives curried into the task tuple)."""
    import pathlib

    value, marker_dir = task
    marker = pathlib.Path(marker_dir) / f"tried-{value}"
    if not marker.exists():
        marker.write_text("1")
        raise RuntimeError(f"transient failure on {value}")
    return value * value


# -- enqueue ----------------------------------------------------------------


def test_enqueue_is_idempotent(tmp_path):
    broker = Broker(tmp_path)
    first = broker.enqueue(_square, [1, 2, 3])
    again = broker.enqueue(_square, [1, 2, 3])
    assert first == again
    assert broker.counts(first) == {
        "pending": 3, "leased": 0, "done": 0, "quarantined": 0,
    }
    assert len(broker.sweeps()) == 1


def test_enqueue_preserves_progress(tmp_path):
    broker = Broker(tmp_path)
    sweep = broker.enqueue(_square, [1, 2])
    lease = broker.claim("w1")
    broker.complete(lease, 1)
    broker.enqueue(_square, [1, 2])  # resubmission of the same sweep
    counts = broker.counts(sweep)
    assert counts["done"] == 1 and counts["pending"] == 1


def test_sweep_id_depends_on_content(tmp_path):
    broker = Broker(tmp_path)
    assert broker.enqueue(_square, [1, 2]) != broker.enqueue(_square, [1, 3])
    # Traced-ness changes the result shape, so the sweep identity too.
    assert broker.enqueue(_square, [1, 2]) != broker.enqueue(
        _square, [1, 2], traced=True
    )


def test_task_key_is_content_addressed():
    assert task_key(_square, 5) == task_key(_square, 5)
    assert task_key(_square, 5) != task_key(_square, 6)
    assert task_key(_square, 5) != task_key(_boom, 5)


def test_label_count_mismatch_rejected(tmp_path):
    with pytest.raises(BrokerError, match="labels"):
        Broker(tmp_path).enqueue(_square, [1, 2], labels=["only-one"])


def test_unusable_directory_raises_broker_error():
    with pytest.raises(BrokerError, match="cannot open broker directory"):
        Broker("/proc/definitely/not/writable")


#: The queue schema as written before the HTTP transport and sweep
#: priorities were removed: every existing broker directory still
#: carries its ``idempotency`` table and the ``priority`` column.
_LEGACY_SCHEMA = """
CREATE TABLE sweeps (
    sweep   TEXT PRIMARY KEY,
    fn      TEXT NOT NULL,
    total   INTEGER NOT NULL,
    traced  INTEGER NOT NULL DEFAULT 0,
    created REAL NOT NULL
);
CREATE TABLE tasks (
    sweep      TEXT NOT NULL,
    idx        INTEGER NOT NULL,
    key        TEXT NOT NULL,
    label      TEXT NOT NULL,
    payload    BLOB NOT NULL,
    state      TEXT NOT NULL DEFAULT 'pending',
    attempts   INTEGER NOT NULL DEFAULT 0,
    not_before REAL NOT NULL DEFAULT 0,
    lease_owner    TEXT,
    lease_deadline REAL,
    quarantine_reason TEXT,
    PRIMARY KEY (sweep, idx)
);
CREATE INDEX tasks_by_state ON tasks (state, not_before);
CREATE TABLE results (
    sweep    TEXT NOT NULL,
    key      TEXT NOT NULL,
    label    TEXT NOT NULL,
    file     TEXT NOT NULL,
    sha256   TEXT NOT NULL,
    traced   INTEGER NOT NULL DEFAULT 0,
    worker   TEXT,
    recorded REAL NOT NULL,
    PRIMARY KEY (sweep, key)
);
CREATE TABLE events (
    seq    INTEGER PRIMARY KEY AUTOINCREMENT,
    ts     REAL NOT NULL,
    kind   TEXT NOT NULL,
    sweep  TEXT,
    idx    INTEGER,
    worker TEXT,
    detail TEXT
);
CREATE TABLE idempotency (
    key      TEXT PRIMARY KEY,
    response TEXT NOT NULL,
    ts       REAL NOT NULL
);
ALTER TABLE tasks ADD COLUMN priority INTEGER NOT NULL DEFAULT 0;
"""


def test_queue_with_legacy_idempotency_table_still_works(tmp_path):
    """A broker directory written before the idempotency table and the
    ``priority`` column left the schema opens, claims, completes and
    replays exactly as before; the stale table and column are left
    alone, and a legacy task ranked at a high priority claims in plain
    FIFO order."""
    tmp_path.joinpath("results").mkdir()
    conn = sqlite3.connect(tmp_path / "queue.db")
    conn.executescript(_LEGACY_SCHEMA)
    conn.execute(
        "INSERT INTO idempotency (key, response, ts) VALUES (?, ?, ?)",
        ("k1", '{"ok": true}', 1.0),
    )
    conn.commit()
    conn.close()

    broker = Broker(tmp_path)
    sweep = broker.enqueue(_square, [2, 3])
    urgent = broker.enqueue(str, ["x"])
    broker._conn().execute(
        "UPDATE tasks SET priority = 9 WHERE sweep = ?", (urgent,)
    )
    order = []
    while (lease := broker.claim("w1")) is not None:
        fn, task = lease.load()
        order.append(lease.sweep)
        assert broker.complete(lease, fn(task)) is True
    assert order == [sweep, sweep, urgent]
    assert broker.settled(sweep) and broker.settled(urgent)
    broker.close()
    reopened = Broker(tmp_path)
    assert reopened.replay(sweep) == {0: 4, 1: 9}
    # run_tasks over the same directory replays instead of recomputing.
    assert run_tasks(_square, [2, 3], jobs=2, broker_dir=tmp_path) == [4, 9]
    assert [row[1] for row in reopened.events(sweep)].count("claim") == 2
    rows = reopened._conn().execute(
        "SELECT key, response FROM idempotency"
    ).fetchall()
    assert rows == [("k1", '{"ok": true}')]


# -- claim / lease / reclaim ------------------------------------------------


def test_claims_are_fifo_across_sweeps(tmp_path):
    """Claims follow enqueue order, across sweeps as within one."""
    broker = Broker(tmp_path / "q")
    broker.enqueue(_square, [1, 2], labels=["first-1", "first-2"])
    broker.enqueue(str, ["x", "y"], labels=["second-1", "second-2"])
    order = []
    while True:
        lease = broker.claim("w")
        if lease is None:
            break
        order.append(lease.label)
        fn, task = lease.load()
        broker.complete(lease, fn(task))
    assert order == ["first-1", "first-2", "second-1", "second-2"]


def test_claim_runs_in_index_order_and_drains(tmp_path):
    broker = Broker(tmp_path)
    broker.enqueue(_square, [7, 8], labels=["a", "b"])
    first = broker.claim("w1")
    second = broker.claim("w1")
    assert (first.label, second.label) == ("a", "b")
    assert first.attempt == 1
    assert broker.claim("w1") is None  # everything leased out


def test_claim_reports_payload(tmp_path):
    broker = Broker(tmp_path)
    broker.enqueue(_square, [7])
    fn, task = broker.claim("w1").load()
    assert fn is _square and task == 7


def test_lease_expiry_race_is_safe(tmp_path):
    """Two workers hold the "same" task near TTL expiry: the slow one's
    heartbeat fails, and whichever completion lands second dedupes."""
    broker = Broker(tmp_path, lease_ttl=10.0, backoff_base=0.0)
    sweep = broker.enqueue(_square, [7])
    slow = broker.claim("slow", now=0.0)
    # Before expiry nothing is offerable; after it, the claim reclaims
    # and re-leases in one transaction.
    assert broker.claim("fast", now=5.0) is None
    fast = broker.claim("fast", now=11.0)
    assert fast is not None and fast.attempt == 2
    with pytest.raises(LeaseLostError):
        broker.heartbeat(slow, now=12.0)
    assert broker.complete(fast, 49) is True
    assert broker.complete(slow, 49) is False  # late completion dedupes
    assert broker.replay(sweep) == {0: 49}
    assert broker.settled(sweep)


def test_reclaim_expired_backs_off_then_quarantines(tmp_path):
    broker = Broker(tmp_path, lease_ttl=10.0, max_attempts=2, backoff_base=4.0)
    sweep = broker.enqueue(_square, [7], labels=["t"])
    broker.claim("w1", now=0.0)
    reclaimed = broker.reclaim_expired(now=20.0)
    assert reclaimed == [(sweep, 0, "t", "pending")]
    # Re-offer backs off: 4.0 * 2**(1-1) past the reclaim instant.
    assert broker.claim("w2", now=21.0) is None
    lease = broker.claim("w2", now=25.0)
    assert lease.attempt == 2
    # Second expiry exhausts the budget: quarantined, with the dead
    # worker blamed in the reason.
    assert broker.reclaim_expired(now=40.0) == [(sweep, 0, "t", "quarantined")]
    (entry,) = broker.quarantined(sweep)
    assert entry[2] == "t" and "w2" in entry[4]
    assert broker.settled(sweep)  # quarantine is terminal: sweep settles


def test_fail_backs_off_then_quarantines(tmp_path):
    broker = Broker(tmp_path, max_attempts=2, backoff_base=1.0)
    sweep = broker.enqueue(_boom, [5], labels=["poison"])
    lease = broker.claim("w1", now=0.0)
    assert broker.fail(lease, ValueError("nope"), now=1.0) == "pending"
    assert broker.claim("w1", now=1.5) is None  # inside the backoff window
    lease = broker.claim("w1", now=3.0)
    assert lease.attempt == 2
    assert broker.fail(lease, ValueError("nope"), now=4.0) == "quarantined"
    (entry,) = broker.quarantined(sweep)
    assert "ValueError: nope" in entry[4]


def test_fail_never_touches_a_reassigned_lease(tmp_path):
    """A worker failing after its lease was reclaimed and re-leased
    must not clobber the new holder's live attempt."""
    broker = Broker(tmp_path, lease_ttl=10.0, backoff_base=0.0)
    broker.enqueue(_square, [7])
    old = broker.claim("old", now=0.0)
    new = broker.claim("new", now=11.0)  # reclaim + re-lease
    assert broker.fail(old, RuntimeError("late"), now=12.0) == "leased"
    broker.heartbeat(new, now=12.0)  # still alive
    assert broker.complete(new, 49) is True


def test_active_workers_tracks_live_leases(tmp_path):
    broker = Broker(tmp_path, lease_ttl=10.0)
    broker.enqueue(_square, [1, 2])
    broker.claim("alpha", now=0.0)
    broker.claim("beta", now=0.0)
    assert broker.active_workers(now=5.0) == ["alpha", "beta"]
    assert broker.active_workers(now=11.0) == []


# -- completion / replay ----------------------------------------------------


def test_duplicate_content_computed_once(tmp_path):
    broker = Broker(tmp_path)
    sweep = broker.enqueue(_square, [3, 4, 3], labels=["a", "b", "a2"])
    done = 0
    while (lease := broker.claim("w1")) is not None:
        broker.complete(lease, _square(lease.load()[1]))
        done += 1
    assert done == 2  # the duplicate task never needed a claim
    assert broker.replay(sweep) == {0: 9, 1: 16, 2: 9}


def test_replay_verifies_digests(tmp_path):
    broker = Broker(tmp_path)
    sweep = broker.enqueue(_square, [3, 4])
    while (lease := broker.claim("w1")) is not None:
        broker.complete(lease, _square(lease.load()[1]))
    (victim,) = [p for p in broker.results_dir.iterdir() if "-" in p.name][:1]
    payload = bytearray(victim.read_bytes())
    payload[len(payload) // 2] ^= 0x40
    victim.write_bytes(bytes(payload))
    # The rotted result is absent from replay, never returned wrong.
    assert len(broker.replay(sweep)) == 1


def test_events_audit_trail(tmp_path):
    broker = Broker(tmp_path, max_attempts=1)
    sweep = broker.enqueue(_square, [1, 2])
    broker.complete(broker.claim("w1"), 1)
    broker.fail(broker.claim("w1"), ValueError("x"))
    kinds = [row[1] for row in broker.events(sweep)]
    assert kinds == ["enqueue", "claim", "complete", "claim", "quarantine"]


# -- worker loop ------------------------------------------------------------


def test_worker_loop_drains_queue(tmp_path):
    broker = Broker(tmp_path)
    sweep = broker.enqueue(_square, [2, 3, 4])
    completed = worker_loop(tmp_path, worker="w1", lease_ttl=5.0)
    assert completed == 3
    assert broker.replay(sweep) == {0: 4, 1: 9, 2: 16}


def test_worker_loop_quarantines_poison_and_finishes_sweep(tmp_path):
    """The acceptance scenario: an always-crashing task is quarantined
    after its retry budget while the rest of the sweep completes."""
    broker = Broker(tmp_path, max_attempts=2, backoff_base=0.0)
    good = broker.enqueue(_square, [5, 6], labels=["g5", "g6"])
    poison = broker.enqueue(_boom, [1], labels=["poison"])
    logs = []
    worker_loop(
        tmp_path, worker="w1", lease_ttl=5.0, max_attempts=2,
        backoff_base=0.0, log=logs.append,
    )
    assert broker.replay(good) == {0: 25, 1: 36}
    (entry,) = broker.quarantined(poison)
    assert entry[2] == "poison" and "exploded" in entry[4]
    assert broker.settled(good) and broker.settled(poison)
    assert any("failed" in line for line in logs)


def test_worker_loop_retries_transient_failures(tmp_path):
    broker = Broker(tmp_path, backoff_base=0.0)
    tasks = [(2, str(tmp_path)), (3, str(tmp_path))]
    sweep = broker.enqueue(_flaky_square, tasks, labels=["f2", "f3"])
    worker_loop(tmp_path, worker="w1", lease_ttl=5.0, backoff_base=0.0)
    assert broker.replay(sweep) == {0: 4, 1: 9}


def test_worker_loop_max_tasks(tmp_path):
    broker = Broker(tmp_path)
    broker.enqueue(_square, [1, 2, 3])
    assert worker_loop(tmp_path, worker="w1", max_tasks=2) == 2
    assert broker.counts()["pending"] == 1


def test_task_timeout_fires_promptly_at_default_lease_ttl(tmp_path):
    """The heartbeat wakes for the task deadline, not just on renewals
    every lease_ttl/3 (10 s at the default TTL), so a 0.5 s budget
    fires within about a second."""
    broker = Broker(tmp_path)
    assert broker.lease_ttl == 30.0
    broker.enqueue(_square, [1])
    lease = broker.claim("w1")
    beat = _Heartbeat(broker, lease, task_timeout=0.5, timeout_kills=False)
    start = time.monotonic()
    beat.start()
    beat.join(timeout=5.0)
    assert beat.timed_out
    assert 0.5 <= time.monotonic() - start < 1.5


# -- environment knobs ------------------------------------------------------


def test_harness_timeout_and_retry_envs(monkeypatch):
    monkeypatch.setenv(harness.TASK_TIMEOUT_ENV, "12.5")
    assert harness.resolve_timeout(None) == 12.5
    # Explicit arguments beat the environment.
    assert harness.resolve_timeout(3.0) == 3.0
    # Zero or less means no timeout, from either source.
    assert harness.resolve_timeout(0.0) is None
    monkeypatch.setenv(harness.TASK_TIMEOUT_ENV, "-1")
    assert harness.resolve_timeout(None) is None
    monkeypatch.setenv(harness.TASK_TIMEOUT_ENV, "junk")
    with pytest.raises(ExperimentError):
        harness.resolve_timeout(None)


# -- run_tasks broker backend ------------------------------------------------


def test_run_tasks_broker_backend_matches_pool(tmp_path):
    out = run_tasks(
        _square, [1, 2, 3], jobs=1, backend="broker",
        broker_dir=tmp_path / "q",
    )
    assert out == [1, 4, 9]


def test_run_tasks_broker_replays_instantly(tmp_path):
    run_tasks(_square, [1, 2], jobs=1, backend="broker", broker_dir=tmp_path)
    logs = []
    # _boom in place of _square: same content keys would recompute if
    # replay missed (different fn -> different keys, so use _square and
    # count the "already complete" log instead).
    again = run_tasks(
        _square, [1, 2], jobs=1, backend="broker", broker_dir=tmp_path,
        log=logs.append,
    )
    assert again == [1, 4]
    assert any("already complete" in line for line in logs)


def test_run_tasks_broker_degrades_to_pool(tmp_path, monkeypatch):
    logs = []
    out = run_tasks(
        _square, [1, 2], jobs=1, backend="broker",
        broker_dir="/proc/definitely/not/writable", log=logs.append,
    )
    assert out == [1, 4]
    assert any("broker unavailable" in line for line in logs)


def test_run_tasks_broker_rescues_quarantined_serially(tmp_path):
    """Poison tasks get one final serial in-parent attempt, so genuine
    poison surfaces its real traceback in the caller."""
    with pytest.raises(ValueError, match="exploded"):
        run_tasks(
            _boom, [1], jobs=1, backend="broker", broker_dir=tmp_path,
        )


def test_run_tasks_rejects_unknown_backend(tmp_path):
    with pytest.raises(ExperimentError, match="backend"):
        run_tasks(_square, [1], jobs=1, backend="carrier-pigeon")
