"""Fault-tolerant sweep broker: a claim/lease task queue on SQLite.

Every multi-worker sweep of the harness's
:func:`~repro.experiments.harness.run_tasks` runs through this queue.
The sweep is shredded into content-keyed claimable tasks in a broker
directory (one ``queue.db`` SQLite file — stdlib only); local worker
processes claim tasks one at a time and record results; the submitter
replays the completed sweep in task order.  The queue is a single-host
mechanism: SQLite's locking is not reliable over network filesystems,
so the directory lives on local disk.  Every failure mode has a
deterministic recovery path:

worker death
    A claim is a *lease* with a TTL.  Workers renew it from a
    heartbeat thread; a ``kill -9``'d worker stops heartbeating, its
    lease expires, and the task is re-offered to the next claimer
    (:meth:`Broker.reclaim_expired`, run automatically inside every
    claim) — at once when the supervising sweep sees the worker exit.
    Nothing is lost and nothing needs manual intervention.

poison tasks
    Every claim consumes one attempt from a bounded budget.  Re-offers
    back off exponentially (``backoff_base * 2**(attempt-1)``, see
    :data:`BACKOFF_BASE`), and a task that exhausts its budget
    is **quarantined**: parked in a terminal state with its blamed
    error while the rest of the sweep completes.  One crashing task
    cannot take a whole figure down.

lease races
    Near TTL expiry two workers can hold the "same" task — the lease
    system makes that safe rather than impossible.  Results are
    recorded **idempotently by content key**: the result file is named
    by its own digest (two writers can never tear each other's bytes)
    and a single ``INSERT OR IGNORE`` decides the canonical completion.
    Duplicate completions dedupe deterministically; any interleaving of
    completions yields one canonical result set.

interrupted tasks
    A task is the unit of durability: one whose worker dies before it
    records a result reruns from its start on its next claim.  Point
    functions are pure, so the rerun records the result an
    uninterrupted run would have.

Content keys hash the point function's reference plus the pickled task
payload, so identical work enqueued twice — a resumed sweep, or the
same parameter point appearing in two places — maps to the same key
and is computed once.  Sweep ids are derived from the content keys
too, making :meth:`Broker.enqueue` idempotent end to end: re-running
an interrupted sweep re-offers only what never finished.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import reprlib
import signal
import socket
import sqlite3
import threading
import time
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.errors import BrokerError, LeaseLostError, TaskTimeoutError
from repro.taxonomy import failed_reason, lease_expired_reason
from repro.store import atomic_publish
from repro.telemetry.context import current_recorder

__all__ = [
    "BACKOFF_BASE",
    "Broker",
    "LEASE_TTL",
    "Lease",
    "MAX_ATTEMPTS",
    "task_key",
    "task_label",
    "worker_loop",
]

#: Seconds a lease lives between heartbeats.  Workers renew at a third
#: of this, so a healthy
#: worker never comes near expiry while a dead one is reclaimed within
#: one TTL.
LEASE_TTL = 30.0

#: Claims allowed per task before quarantine (first attempt included).
MAX_ATTEMPTS = 3

#: Base (seconds) of the exponential backoff between re-offers of a
#: failed task: attempt *n* waits ``BACKOFF_BASE * 2**(n-1)``.
BACKOFF_BASE = 0.5

_SCHEMA = """
CREATE TABLE IF NOT EXISTS sweeps (
    sweep   TEXT PRIMARY KEY,
    fn      TEXT NOT NULL,
    total   INTEGER NOT NULL,
    traced  INTEGER NOT NULL DEFAULT 0,
    created REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS tasks (
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
CREATE INDEX IF NOT EXISTS tasks_by_state ON tasks (state, not_before);
CREATE TABLE IF NOT EXISTS results (
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
CREATE TABLE IF NOT EXISTS events (
    seq    INTEGER PRIMARY KEY AUTOINCREMENT,
    ts     REAL NOT NULL,
    kind   TEXT NOT NULL,
    sweep  TEXT,
    idx    INTEGER,
    worker TEXT,
    detail TEXT
);
"""


#: Longest default task label, in characters.
LABEL_LIMIT = 120

_LABEL_REPR = reprlib.Repr()


def task_label(task) -> str:
    """Default display label of *task*: its repr with each part
    shortened by :mod:`reprlib`, capped at :data:`LABEL_LIMIT`
    characters.  A sweep task carrying a whole workload has a repr of
    tens of kilobytes, which would land in every progress line and
    queue row.  Labels only name tasks; content keys do not read them.
    """
    text = _LABEL_REPR.repr(task)
    if len(text) > LABEL_LIMIT:
        text = text[: LABEL_LIMIT - 3] + "..."
    return text


def task_key(fn: Callable, task) -> str:
    """Content key of one task: the point function's reference hashed
    with the pickled task payload.

    Identical work maps to the same key whatever sweep or index it is
    enqueued from — the unit of idempotent result recording.
    """
    ref = f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}"
    h = hashlib.sha256()
    h.update(ref.encode("utf-8"))
    h.update(b"\x00")
    h.update(pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL))
    return h.hexdigest()[:32]


def default_worker_id() -> str:
    return f"{socket.gethostname()}:{os.getpid()}"


class Lease:
    """One worker's claim on one task, valid until ``deadline``."""

    __slots__ = (
        "sweep", "index", "key", "label", "payload",
        "attempt", "deadline", "worker",
    )

    def __init__(self, sweep, index, key, label, payload, attempt, deadline,
                 worker):
        self.sweep = sweep
        self.index = index
        self.key = key
        self.label = label
        self.payload = payload
        self.attempt = attempt
        self.deadline = deadline
        self.worker = worker

    def load(self) -> tuple:
        """Unpickle ``(fn, task)`` from the claimed payload."""
        return pickle.loads(self.payload)

    def __repr__(self):
        return (
            f"Lease({self.sweep}[{self.index}] {self.label!r} "
            f"attempt={self.attempt} worker={self.worker})"
        )


class Broker:
    """A claim/lease task queue over one broker directory.

    Layout::

        queue.db                       tasks / results / events (SQLite)
        results/<key>-<digest>.pkl     pickled result payloads

    Every instance opens its own SQLite connections (one per thread —
    heartbeat threads renew through their own handle), so any number of
    worker processes on this host can share the directory.
    All state transitions run inside ``BEGIN IMMEDIATE`` transactions:
    claims are atomic, and two workers can never claim the same live
    lease.

    Args:
        directory: the broker root (created if missing).
        lease_ttl: seconds a claim stays valid without a heartbeat.
        max_attempts: claims allowed per task before quarantine.
        backoff_base: exponential-backoff base (seconds) between
            re-offers.
        fsync: fsync result files before publishing them, and queue
            commits (off for throwaway queues and tests, where losing
            a result to power loss is fine).

    Raises:
        BrokerError: the directory (or its database) cannot be
            created/opened — callers degrade to a local queue.
    """

    def __init__(
        self,
        directory,
        lease_ttl: float = LEASE_TTL,
        max_attempts: int = MAX_ATTEMPTS,
        backoff_base: float = BACKOFF_BASE,
        fsync: bool = True,
    ):
        if lease_ttl <= 0:
            raise BrokerError(f"lease_ttl must be positive, got {lease_ttl}")
        if max_attempts < 1:
            raise BrokerError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        if backoff_base < 0:
            raise BrokerError(
                f"backoff_base must be >= 0, got {backoff_base}"
            )
        self.lease_ttl = float(lease_ttl)
        self.max_attempts = int(max_attempts)
        self.backoff_base = float(backoff_base)
        self.fsync = bool(fsync)
        self.directory = Path(directory)
        self.db_path = self.directory / "queue.db"
        self.results_dir = self.directory / "results"
        self._local = threading.local()
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            self.results_dir.mkdir(exist_ok=True)
            # executescript commits on its own; keep it out of _txn.
            self._conn().executescript(_SCHEMA)
        except (OSError, sqlite3.Error) as exc:
            raise BrokerError(
                f"cannot open broker directory {directory}: {exc}"
            ) from exc

    # -- plumbing -----------------------------------------------------------

    def _conn(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(
                str(self.db_path), timeout=30.0, isolation_level=None
            )
            conn.execute("PRAGMA busy_timeout = 30000")
            try:
                conn.execute("PRAGMA journal_mode = WAL")
            except sqlite3.Error:
                pass  # WAL unsupported on this filesystem; default is fine
            if not self.fsync:
                conn.execute("PRAGMA synchronous = OFF")
            self._local.conn = conn
        return conn

    class _Txn:
        def __init__(self, conn):
            self.conn = conn

        def __enter__(self):
            self.conn.execute("BEGIN IMMEDIATE")
            return self.conn.cursor()

        def __exit__(self, exc_type, exc, tb):
            if exc_type is None:
                self.conn.execute("COMMIT")
            else:
                self.conn.execute("ROLLBACK")
            return False

    def _txn(self) -> "_Txn":
        return self._Txn(self._conn())

    def _event(self, cur, kind, sweep=None, idx=None, worker=None,
               detail=None, now=None) -> None:
        cur.execute(
            "INSERT INTO events (ts, kind, sweep, idx, worker, detail) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            (now if now is not None else time.time(),
             kind, sweep, idx, worker, detail),
        )
        rec = current_recorder()
        if rec.enabled:
            rec.incr(f"broker.{kind}")
            if rec.wants("broker"):
                run = getattr(self._local, "telemetry_run", None)
                if run is None:
                    run = rec.begin_run(
                        f"broker:{worker or default_worker_id()}", clock="wall"
                    )
                    self._local.telemetry_run = run
                rec.instant(
                    "broker", kind, time.perf_counter(), run=run,
                    args={"sweep": sweep, "idx": idx, "detail": detail},
                )

    # -- enqueue ------------------------------------------------------------

    def enqueue(
        self,
        fn: Callable,
        tasks: Sequence,
        labels: Optional[Sequence[str]] = None,
        sweep: Optional[str] = None,
        traced: bool = False,
    ) -> str:
        """Shred a sweep into claimable tasks; returns the sweep id.

        Idempotent: the sweep id is derived from the content keys, so
        re-enqueueing the same work is a no-op that leaves existing
        progress (done/quarantined states, recorded results) intact.
        """
        tasks = list(tasks)
        if labels is None:
            labels = [task_label(task) for task in tasks]
        elif len(labels) != len(tasks):
            raise BrokerError(
                f"got {len(labels)} labels for {len(tasks)} tasks"
            )
        ref = (
            f"{getattr(fn, '__module__', '?')}."
            f"{getattr(fn, '__qualname__', repr(fn))}"
        )
        items = [
            (
                task_key(fn, task),
                str(label),
                pickle.dumps((fn, task), protocol=pickle.HIGHEST_PROTOCOL),
            )
            for task, label in zip(tasks, labels)
        ]
        if sweep is None:
            # Traced sweeps record (value, telemetry blob) wrappers — a
            # different result shape, so a different sweep identity.
            h = hashlib.sha256(ref.encode("utf-8"))
            if traced:
                h.update(b"\x01traced")
            for key, _label, _payload in items:
                h.update(b"\x00")
                h.update(key.encode("ascii"))
            sweep = f"sweep-{h.hexdigest()[:12]}"
        now = time.time()
        with self._txn() as cur:
            fresh = cur.execute(
                "INSERT OR IGNORE INTO sweeps "
                "(sweep, fn, total, traced, created) VALUES (?, ?, ?, ?, ?)",
                (sweep, ref, len(items), int(bool(traced)), now),
            ).rowcount
            for idx, (key, label, payload) in enumerate(items):
                cur.execute(
                    "INSERT OR IGNORE INTO tasks "
                    "(sweep, idx, key, label, payload) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (sweep, idx, key, str(label), payload),
                )
            if fresh:
                self._event(
                    cur, "enqueue", sweep=sweep,
                    detail=f"{len(items)} task(s) fn={ref}", now=now,
                )
        return sweep

    # -- claim / lease ------------------------------------------------------

    def claim(
        self, worker: Optional[str] = None, now: Optional[float] = None
    ) -> Optional[Lease]:
        """Atomically claim one runnable task, or ``None`` if none is
        currently offerable (queue drained, every offer backing off, or
        everything leased out).

        Expired leases are reclaimed first, inside the same
        transaction, so a claim right after a worker death re-offers
        the dead worker's task immediately.
        """
        worker = worker or default_worker_id()
        now = time.time() if now is None else now
        with self._txn() as cur:
            self._reclaim_locked(cur, now)
            # FIFO: rowid is insertion order, which re-offers keep — a
            # retried task never loses its place in line.
            row = cur.execute(
                "SELECT sweep, idx, key, label, payload, attempts "
                "FROM tasks WHERE state = 'pending' AND not_before <= ? "
                "ORDER BY rowid LIMIT 1",
                (now,),
            ).fetchone()
            if row is None:
                return None
            sweep, idx, key, label, payload, attempts = row
            deadline = now + self.lease_ttl
            cur.execute(
                "UPDATE tasks SET state = 'leased', attempts = ?, "
                "lease_owner = ?, lease_deadline = ? "
                "WHERE sweep = ? AND idx = ?",
                (attempts + 1, worker, deadline, sweep, idx),
            )
            self._event(
                cur, "claim", sweep=sweep, idx=idx, worker=worker,
                detail=f"attempt {attempts + 1}/{self.max_attempts}", now=now,
            )
        return Lease(
            sweep, idx, key, label, payload, attempts + 1, deadline, worker
        )

    def heartbeat(self, lease: Lease, now: Optional[float] = None) -> float:
        """Renew *lease*, returning the new deadline.

        Raises:
            LeaseLostError: the lease expired and was reclaimed (or the
                task was completed/quarantined) — the worker should
                abandon the attempt; a late completion is still safe to
                record and will simply dedupe.
        """
        now = time.time() if now is None else now
        deadline = now + self.lease_ttl
        with self._txn() as cur:
            changed = cur.execute(
                "UPDATE tasks SET lease_deadline = ? "
                "WHERE sweep = ? AND idx = ? AND state = 'leased' "
                "AND lease_owner = ?",
                (deadline, lease.sweep, lease.index, lease.worker),
            ).rowcount
        if not changed:
            raise LeaseLostError(
                f"lease on {lease.sweep}[{lease.index}] ({lease.label}) "
                f"lost by {lease.worker}"
            )
        lease.deadline = deadline
        return deadline

    def reclaim_expired(
        self, now: Optional[float] = None, worker: Optional[str] = None
    ) -> list:
        """Re-offer every task whose lease deadline has passed — and,
        given *worker* (known dead: its process exited), every lease it
        holds, without waiting out the TTL.  The attempt still counts.

        Returns ``(sweep, idx, label, new_state)`` tuples for the
        reclaimed tasks (``new_state`` is ``pending`` or
        ``quarantined``).  Also run automatically inside every claim.
        """
        now = time.time() if now is None else now
        with self._txn() as cur:
            if worker is not None:
                cur.execute(
                    "UPDATE tasks SET lease_deadline = ? "
                    "WHERE state = 'leased' AND lease_owner = ?",
                    (now, worker),
                )
            return self._reclaim_locked(cur, now)

    def _reclaim_locked(self, cur, now: float) -> list:
        rows = cur.execute(
            "SELECT sweep, idx, label, attempts, lease_owner FROM tasks "
            "WHERE state = 'leased' AND lease_deadline <= ?",
            (now,),
        ).fetchall()
        out = []
        for sweep, idx, label, attempts, owner in rows:
            if attempts >= self.max_attempts:
                reason = lease_expired_reason(
                    attempts, self.max_attempts, owner
                )
                cur.execute(
                    "UPDATE tasks SET state = 'quarantined', "
                    "lease_owner = NULL, lease_deadline = NULL, "
                    "quarantine_reason = ? WHERE sweep = ? AND idx = ?",
                    (reason, sweep, idx),
                )
                self._event(
                    cur, "quarantine", sweep=sweep, idx=idx, worker=owner,
                    detail=reason, now=now,
                )
                out.append((sweep, idx, label, "quarantined"))
            else:
                not_before = now + self.backoff_base * (2 ** (attempts - 1))
                cur.execute(
                    "UPDATE tasks SET state = 'pending', lease_owner = NULL, "
                    "lease_deadline = NULL, not_before = ? "
                    "WHERE sweep = ? AND idx = ?",
                    (not_before, sweep, idx),
                )
                self._event(
                    cur, "reclaim", sweep=sweep, idx=idx, worker=owner,
                    detail=f"lease expired after attempt {attempts}", now=now,
                )
                out.append((sweep, idx, label, "pending"))
        return out

    # -- completion ---------------------------------------------------------

    def complete(
        self,
        lease: Lease,
        value,
        traced: bool = False,
        now: Optional[float] = None,
    ) -> bool:
        """Record *value* as the result of the leased task.

        Idempotent by content key: the first completion for a key wins
        and later ones dedupe (returning ``False``) — safe to call even
        after the lease was lost to another worker.  The result file is
        published under a digest-qualified name *before* the database
        row, so a crash between the two leaves at worst an orphaned
        file, never a recorded result with missing bytes; and two
        racing writers can never corrupt each other (same digest means
        same bytes, different digests mean different files).
        """
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        sweep, key = lease.sweep, lease.key
        now = time.time() if now is None else now
        digest = hashlib.sha256(payload).hexdigest()
        name = f"{key}-{digest[:12]}.pkl"
        path = self.results_dir / name
        if not path.exists():
            atomic_publish(path, payload, fsync=self.fsync)
        with self._txn() as cur:
            recorded = cur.execute(
                "INSERT OR IGNORE INTO results "
                "(sweep, key, label, file, sha256, traced, worker, recorded) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (sweep, key, lease.label, name, digest,
                 int(bool(traced)), lease.worker, now),
            ).rowcount == 1
            # Settle every task row sharing the key (duplicate content
            # within a sweep is computed once).
            cur.execute(
                "UPDATE tasks SET state = 'done', lease_owner = NULL, "
                "lease_deadline = NULL, quarantine_reason = NULL "
                "WHERE sweep = ? AND key = ? AND state != 'done'",
                (sweep, key),
            )
            self._event(
                cur,
                "complete" if recorded else "dedupe",
                sweep=sweep, idx=lease.index, worker=lease.worker,
                detail=digest[:12], now=now,
            )
        return recorded

    def fail(
        self, lease: Lease, error, now: Optional[float] = None
    ) -> str:
        """Report a failed attempt; returns the task's new state
        (``pending`` for a backed-off re-offer, ``quarantined`` once
        the attempt budget is spent)."""
        now = time.time() if now is None else now
        detail = f"{type(error).__name__}: {error}" if isinstance(
            error, BaseException
        ) else str(error)
        with self._txn() as cur:
            row = cur.execute(
                "SELECT attempts, state, lease_owner FROM tasks "
                "WHERE sweep = ? AND idx = ?",
                (lease.sweep, lease.index),
            ).fetchone()
            if row is None:
                raise BrokerError(
                    f"no such task {lease.sweep}[{lease.index}]"
                )
            attempts, state, owner = row
            if state != "leased" or owner != lease.worker:
                # Reclaimed (and possibly re-leased to another worker)
                # while we were failing: that attempt was already
                # charged at reclaim time — never fail someone else's
                # live lease.
                return state
            if attempts >= self.max_attempts:
                reason = failed_reason(attempts, self.max_attempts, detail)
                cur.execute(
                    "UPDATE tasks SET state = 'quarantined', "
                    "lease_owner = NULL, lease_deadline = NULL, "
                    "quarantine_reason = ? WHERE sweep = ? AND idx = ?",
                    (reason, lease.sweep, lease.index),
                )
                self._event(
                    cur, "quarantine", sweep=lease.sweep, idx=lease.index,
                    worker=lease.worker, detail=reason, now=now,
                )
                return "quarantined"
            not_before = now + self.backoff_base * (2 ** (attempts - 1))
            cur.execute(
                "UPDATE tasks SET state = 'pending', lease_owner = NULL, "
                "lease_deadline = NULL, not_before = ? "
                "WHERE sweep = ? AND idx = ?",
                (not_before, lease.sweep, lease.index),
            )
            self._event(
                cur, "fail", sweep=lease.sweep, idx=lease.index,
                worker=lease.worker, detail=detail, now=now,
            )
            return "pending"

    # -- inspection / replay ------------------------------------------------

    def counts(self, sweep: Optional[str] = None) -> dict:
        """``{state: task count}``, for one sweep or the whole queue."""
        query = "SELECT state, COUNT(*) FROM tasks"
        args: tuple = ()
        if sweep is not None:
            query += " WHERE sweep = ?"
            args = (sweep,)
        rows = self._conn().execute(query + " GROUP BY state", args).fetchall()
        out = {"pending": 0, "leased": 0, "done": 0, "quarantined": 0}
        out.update(dict(rows))
        return out

    def done_indices(self, sweep: str) -> list:
        """Indices of *sweep*'s tasks that are done, in index order."""
        return [
            row[0]
            for row in self._conn().execute(
                "SELECT idx FROM tasks WHERE sweep = ? AND state = 'done' "
                "ORDER BY idx",
                (sweep,),
            ).fetchall()
        ]

    def sweep_traced(self, sweep: str) -> bool:
        """Whether *sweep* records traced ``(value, blob)`` results."""
        row = self._conn().execute(
            "SELECT traced FROM sweeps WHERE sweep = ?", (sweep,)
        ).fetchone()
        return bool(row and row[0])

    def quarantined(self, sweep: Optional[str] = None) -> list:
        """``(sweep, idx, label, attempts, reason)`` for every
        quarantined task."""
        query = (
            "SELECT sweep, idx, label, attempts, quarantine_reason "
            "FROM tasks WHERE state = 'quarantined'"
        )
        args: tuple = ()
        if sweep is not None:
            query += " AND sweep = ?"
            args = (sweep,)
        return self._conn().execute(query + " ORDER BY sweep, idx", args).fetchall()

    def replay(
        self, sweep: str, traced: bool = False, indices=None
    ) -> dict:
        """``{task index: value}`` for every verified recorded result
        (of the given task *indices* only, when given).

        A result whose file is missing, truncated, or fails its digest
        check is treated as absent (the task re-runs) rather than
        returning silently wrong bytes, and records of the other
        traced-ness are skipped.
        """
        index_keys = self._conn().execute(
            "SELECT idx, key FROM tasks WHERE sweep = ?", (sweep,)
        ).fetchall()
        if indices is not None:
            indices = set(indices)
            index_keys = [row for row in index_keys if row[0] in indices]
        wanted = {key for _, key in index_keys}
        by_key = {}
        rows = self._conn().execute(
            "SELECT key, file, sha256, traced FROM results WHERE sweep = ?",
            (sweep,),
        ).fetchall()
        for key, name, digest, rec_traced in rows:
            if key not in wanted or bool(rec_traced) != bool(traced):
                continue
            try:
                payload = (self.results_dir / name).read_bytes()
            except OSError:
                continue
            if hashlib.sha256(payload).hexdigest() != digest:
                continue
            try:
                by_key[key] = pickle.loads(payload)
            except Exception:
                continue
        return {idx: by_key[key] for idx, key in index_keys if key in by_key}

    def events(self, sweep: Optional[str] = None, limit: int = 200) -> list:
        """The newest audit-trail rows, oldest first."""
        query = "SELECT ts, kind, sweep, idx, worker, detail FROM events"
        args: tuple = ()
        if sweep is not None:
            query += " WHERE sweep = ?"
            args = (sweep,)
        rows = self._conn().execute(
            query + " ORDER BY seq DESC LIMIT ?", args + (int(limit),)
        ).fetchall()
        return list(reversed(rows))

    def active_workers(self, now: Optional[float] = None) -> list:
        """Workers currently holding unexpired leases."""
        now = time.time() if now is None else now
        return [
            row[0]
            for row in self._conn().execute(
                "SELECT DISTINCT lease_owner FROM tasks "
                "WHERE state = 'leased' AND lease_deadline > ? "
                "ORDER BY lease_owner",
                (now,),
            ).fetchall()
        ]

    def close(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None


# -- worker loop ------------------------------------------------------------


class _Heartbeat(threading.Thread):
    """Renews one lease until stopped and enforces the per-task wall
    budget: past it, the thread stops renewing (the lease lapses and
    the task is re-offered elsewhere) or, with *timeout_kills*, reports
    the attempt failed with :class:`TaskTimeoutError` and SIGKILLs its
    own process so the slot is reclaimed at once."""

    def __init__(self, broker, lease, task_timeout, timeout_kills):
        super().__init__(daemon=True)
        self.broker = broker
        self.lease = lease
        self.task_timeout = task_timeout
        self.timeout_kills = timeout_kills
        self.started_at = time.monotonic()
        self.lost = False
        self.timed_out = False
        self._halt = threading.Event()

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=self.broker.lease_ttl)

    def run(self) -> None:
        interval = self.broker.lease_ttl / 3.0
        deadline = (
            None if self.task_timeout is None
            else self.started_at + self.task_timeout
        )
        while True:
            # Wake for the next renewal or the deadline, whichever is
            # first: a budget far below the TTL still fires on time.
            wait = interval
            if deadline is not None:
                wait = max(0.0, min(interval, deadline - time.monotonic()))
            if self._halt.wait(wait):
                return
            if deadline is not None and time.monotonic() >= deadline:
                self.timed_out = True
                if self.timeout_kills:
                    self._fail_and_die()
                return  # stop renewing; the lease expires and reclaims
            try:
                self.broker.heartbeat(self.lease)
            except LeaseLostError:
                self.lost = True
                return
            except Exception:
                # A transient DB hiccup: keep trying while the lease
                # may still be alive.
                continue

    def _fail_and_die(self) -> None:
        error = TaskTimeoutError(
            f"task {self.lease.label} exceeded {self.task_timeout:g}s"
        )
        try:
            # Recorded before dying, so a quarantine reason names the
            # TaskTimeoutError and the submitter raises it instead of
            # rescuing a call that never returns.
            self.broker.fail(self.lease, error)
        except Exception:
            pass  # the lease lapses instead
        os.kill(os.getpid(), signal.SIGKILL)


def worker_loop(
    directory,
    worker: Optional[str] = None,
    lease_ttl: float = LEASE_TTL,
    max_attempts: int = MAX_ATTEMPTS,
    backoff_base: float = BACKOFF_BASE,
    task_timeout: Optional[float] = None,
    timeout_kills: bool = False,
    poll_interval: float = 0.2,
    max_tasks: Optional[int] = None,
    log: Optional[Callable] = None,
    durable: bool = True,
) -> int:
    """Claim and run tasks from the broker at *directory* until no task
    is runnable or running anywhere in the queue.

    The core of the local workers the harness runs for every
    multi-worker sweep.  Each claimed task runs under a heartbeat thread
    renewing the lease at a third of its TTL; an exception inside the
    point function reports :meth:`Broker.fail` (backed-off re-offer,
    then quarantine) instead of killing the loop.

    Args:
        worker: worker identity for leases (host:pid by default).
        task_timeout: per-task wall budget; with *timeout_kills* the
            worker reports the attempt failed and SIGKILLs itself when
            it is exceeded (subprocess workers only!), otherwise it
            just stops heartbeating so the task is reclaimed while the
            local attempt burns out.
        max_tasks: stop after this many completed claims (tests).
        durable: ``False`` for a throwaway queue that nothing resumes
            from: results are not fsynced.

    Returns:
        the number of tasks this worker completed.
    """
    worker = worker or default_worker_id()
    broker = Broker(
        directory,
        lease_ttl=lease_ttl,
        max_attempts=max_attempts,
        backoff_base=backoff_base,
        fsync=durable,
    )
    rec = current_recorder()
    completed = 0
    task_run = None
    traced_cache: dict = {}
    while True:
        if max_tasks is not None and completed >= max_tasks:
            return completed
        lease = broker.claim(worker)
        if lease is None:
            counts = broker.counts()
            if counts["pending"] == 0 and counts["leased"] == 0:
                return completed
            time.sleep(poll_interval)
            continue
        if log is not None:
            log(
                f"worker {worker}: claimed {lease.label} "
                f"(attempt {lease.attempt})"
            )
        heartbeat = _Heartbeat(broker, lease, task_timeout, timeout_kills)
        heartbeat.start()
        started = time.perf_counter()
        try:
            fn, task = lease.load()
            value = fn(task)
        except BaseException as exc:
            heartbeat.stop()
            state = broker.fail(lease, exc)
            if log is not None:
                log(f"worker {worker}: {lease.label} failed ({exc!r}) -> {state}")
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            continue
        heartbeat.stop()
        if lease.sweep not in traced_cache:
            traced_cache[lease.sweep] = broker.sweep_traced(lease.sweep)
        recorded = broker.complete(
            lease, value, traced=traced_cache[lease.sweep]
        )
        completed += 1
        if rec.enabled and rec.wants("task"):
            if task_run is None:
                task_run = rec.begin_run(f"broker-worker:{worker}", clock="wall")
            rec.span(
                "task", lease.label, started,
                time.perf_counter() - started, run=task_run,
            )
        if log is not None:
            log(
                f"worker {worker}: {lease.label} "
                f"{'recorded' if recorded else 'deduped'}"
            )
