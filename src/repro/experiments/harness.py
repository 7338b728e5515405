"""Parallel fan-out for experiment sweeps.

Every experiment in this package is a sweep: the same deterministic
point function evaluated at many parameter values (δ thresholds, error
rates, technique variants, benchmarks).  The points are independent, so
:func:`run_tasks` fans them out over worker processes and returns
results in task order — the caller's loop body becomes a module-level
worker function and nothing else changes.

Determinism contract: a point function must be a pure function of its
(picklable) task tuple.  Under that contract parallel results are bit
for bit identical to serial ones, whatever the worker count or
completion order — ``tests/experiments/test_determinism.py`` pins this
for Figure 6 and Table 1.

Worker count resolution (first match wins):

1. the explicit ``jobs=`` argument,
2. the ``REPRO_JOBS`` environment variable,
3. ``os.cpu_count()``.

Without a broker or run dir, ``REPRO_JOBS=1`` (or ``jobs=1``) runs
every task serially in-process — no workers, no pickling — which is
also the debugging fallback and the reference the tests compare
against.

One mechanism runs every multi-worker sweep: the claim/lease queue of
:mod:`repro.experiments.broker`, served by worker processes on this
host.  The queue lives

* in the broker directory named by ``broker_dir=``;
* else, under :func:`set_run_root` (the CLI's ``--run-dir``), at
  ``<run dir>/broker``;
* else in a throwaway temporary directory, deleted when the sweep
  returns.

Local workers are forked (so they inherit the parent's already-populated
static-pipeline cache, :mod:`repro.tuning.pipeline`); under
``spawn``/``forkserver`` (``start_method=``) the same entries are
shipped to each worker at start-up, so every start method sees a warm
cache.

:func:`derive_seed` gives sweeps stable per-task seeds: hashing the
base seed with the task's identifying parts decorrelates tasks without
coupling any task's seed to how many tasks run or in what order.

Durable sweeps
==============

A queue in a broker directory or a run dir is durable: results are
recorded idempotently by content key (and fsynced), sweep ids derive
from those keys, so a rerun — ``python -m repro.experiments resume
RUNDIR`` — replays finished tasks and reruns, from its start, each
task that never finished.  A local worker that dies loses its leases
at once (the supervisor knows its ``host:pid`` identity), a task that
keeps killing workers is quarantined after its attempt budget and
rescued serially in the parent, and because point functions are pure
and results are replayed in task order, a resumed sweep returns bit-
identical results to an uninterrupted one.  The throwaway queue skips
fsyncs: nothing outlives it to resume from.
"""

from __future__ import annotations

import functools
import hashlib
import multiprocessing
import multiprocessing.connection
import os
import signal
import socket
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.errors import BrokerError, ExperimentError, TaskTimeoutError
from repro.experiments.broker import task_label
from repro.telemetry.context import current_recorder, set_recorder
from repro.telemetry.recorder import TraceRecorder

#: Environment variable overriding the default worker count.
JOBS_ENV = "REPRO_JOBS"

#: Environment variable giving the per-task timeout its default (CLI
#: ``--task-timeout`` writes it through, so workers and resumed runs
#: see the same budget).
TASK_TIMEOUT_ENV = "REPRO_TASK_TIMEOUT"

#: Run root installed by :func:`set_run_root`; when set, every sweep
#: without an explicit broker goes through ``<root>/broker``.
_run_root: Optional[Path] = None


def set_run_root(path) -> Optional[Path]:
    """Run every subsequent :func:`run_tasks` sweep through the durable
    queue at ``<path>/broker``.

    Sweep ids are derived from the tasks' content, so a resumed
    invocation finds every sweep it had already enqueued and replays
    what finished.  Pass ``None`` to turn it off.
    """
    global _run_root
    _run_root = Path(path) if path is not None else None
    return _run_root


def _env_number(name: str, cast):
    """The environment variable *name* parsed with *cast* (``int`` or
    ``float``), or ``None`` when it is unset or blank.  A value *cast*
    rejects raises :class:`~repro.errors.ExperimentError` naming the
    variable."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return cast(raw)
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise ExperimentError(f"{name}={raw!r} is not {kind}") from None


def worker_count(jobs: Optional[int] = None) -> int:
    """Resolve the effective worker count (always >= 1).

    Args:
        jobs: explicit override; ``None`` defers to the ``REPRO_JOBS``
            environment variable, then to ``os.cpu_count()``.
    """
    if jobs is None:
        jobs = _env_number(JOBS_ENV, int)
        if jobs is None:
            jobs = os.cpu_count() or 1
    return max(1, int(jobs))


def resolve_timeout(timeout: Optional[float]) -> Optional[float]:
    """The effective per-task timeout: the explicit argument, else the
    ``REPRO_TASK_TIMEOUT`` environment variable, else no timeout.  Zero
    or a negative value, from either source, means no timeout."""
    if timeout is None:
        timeout = _env_number(TASK_TIMEOUT_ENV, float)
    return timeout if timeout is not None and timeout > 0 else None


def derive_seed(base: int, *parts) -> int:
    """A stable 63-bit seed for one task of a sweep.

    Hashes *base* with the task's identifying *parts* (stringified), so
    each task gets an independent stream that does not depend on task
    count or execution order.
    """
    h = hashlib.sha256()
    h.update(str(int(base)).encode("utf-8"))
    for part in parts:
        h.update(b"\x00")
        h.update(str(part).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big") >> 1


def run_tasks(
    fn: Callable,
    tasks: Sequence,
    jobs: Optional[int] = None,
    log: Optional[Callable] = None,
    labels: Optional[Sequence[str]] = None,
    timeout: Optional[float] = None,
    start_method: Optional[str] = None,
    backend: Optional[str] = None,
    broker_dir=None,
) -> list:
    """Evaluate ``fn(task)`` for every task, results in task order.

    Args:
        fn: module-level point function (must be picklable for the
            parallel path; any callable works serially).
        tasks: picklable task tuples/values.
        jobs: worker count; see :func:`worker_count`.  Capped at the
            task count; ``1`` without a queue means serial in-process
            execution.
        log: optional progress callback, called with one
            ``[k/n] label`` line per completed task (completion order
            in the parallel path).
        labels: display names per task for *log*; by default the
            task's repr, shortened by
            :func:`~repro.experiments.broker.task_label`.
        timeout: per-task wall-clock budget in seconds, measured from
            the claim.  A worker over budget reports the attempt as
            failed and SIGKILLs itself; the task is re-offered with
            backoff until its attempt budget is spent, and then
            :class:`TaskTimeoutError` is raised.  Defaults to the
            ``REPRO_TASK_TIMEOUT`` environment variable (no timeout
            when unset, zero or negative).  Not enforced in-process
            (``jobs=1``), which cannot interrupt a call.  Each task
            gets :data:`~repro.experiments.broker.MAX_ATTEMPTS` claims,
            so one worker death never quarantines it; re-offers back off
            exponentially from
            :data:`~repro.experiments.broker.BACKOFF_BASE` seconds.
        start_method: multiprocessing start method for local workers
            (``fork`` / ``spawn`` / ``forkserver``); the platform
            default when omitted.  Non-fork workers do not inherit the
            parent's warm pipeline cache through memory, so its entries
            are shipped to each worker at start-up instead.
        backend: ``None`` or ``"broker"``, the only backend; accepted
            so callers that name it keep working.
        broker_dir: a durable broker directory to run the sweep
            through.  If it cannot be opened the sweep degrades
            gracefully to the queue it would have used without one.

    Raises:
        TaskTimeoutError: a task exceeded *timeout* on its last allowed
            attempt.
        ExperimentError: invalid arguments.  Exceptions raised *inside*
            ``fn`` propagate unchanged.  A task that keeps killing its
            worker is quarantined and then rerun serially in-process,
            where a real traceback surfaces if ``fn`` is the culprit.
    """
    tasks = list(tasks)
    total = len(tasks)
    if labels is None:
        labels = [task_label(task) for task in tasks]
    elif len(labels) != total:
        raise ExperimentError(
            f"got {len(labels)} labels for {total} tasks"
        )
    if timeout is not None and timeout <= 0:
        raise ExperimentError(f"timeout must be positive, got {timeout}")
    timeout = resolve_timeout(timeout)
    if backend not in (None, "broker"):
        raise ExperimentError(
            f"backend must be None or 'broker', got {backend!r}"
        )
    if total == 0:
        return []

    rec = current_recorder()
    rec = rec if rec.enabled else None
    sweep = functools.partial(
        _run_broker, fn, tasks, labels, jobs, log, timeout, rec,
        start_method=start_method,
    )
    if broker_dir:
        try:
            return sweep(broker_dir)
        except BrokerError as exc:
            # Graceful degradation: an unusable broker directory
            # (read-only filesystem, missing mount) must not take the
            # sweep down — fall through to the run-dir or throwaway
            # queue.
            if log is not None:
                log(f"broker unavailable ({exc}); using a local queue")
    if _run_root is not None:
        return sweep(_run_root / "broker")
    if min(worker_count(jobs), total) == 1:
        return _run_serial(fn, tasks, labels, log, rec)
    with tempfile.TemporaryDirectory(prefix="repro-sweep-") as scratch:
        return sweep(scratch, durable=False)


def _run_serial(
    fn: Callable,
    tasks: list,
    labels: Sequence[str],
    log: Optional[Callable],
    rec,
) -> list:
    """``jobs=1`` path of :func:`run_tasks`: in-process, in task order."""
    total = len(tasks)
    results = []
    task_run = None
    for index, task in enumerate(tasks):
        started = time.perf_counter()
        results.append(fn(task))
        if rec is not None:
            elapsed = time.perf_counter() - started
            if rec.wants("task"):
                if task_run is None:
                    task_run = rec.begin_run("harness", clock="wall")
                rec.span(
                    "task", labels[index], started, elapsed, run=task_run
                )
            rec.incr("harness.tasks")
            rec.incr("harness.task_seconds", elapsed)
        if log is not None:
            log(f"[{index + 1}/{total}] {labels[index]}")
    return results


def _telemetry_task(fn, categories, task):
    """Worker shim for traced sweeps: run the task under a fresh
    recorder and return ``(result, exported trace blob)``.

    The previous recorder is restored afterwards, so the in-parent
    rescue of a quarantined task records into its own recorder too
    instead of scribbling on (or double-counting) the parent's.
    """
    recorder = TraceRecorder(categories=frozenset(categories))
    previous = set_recorder(recorder)
    started = time.perf_counter()
    try:
        value = fn(task)
    finally:
        elapsed = time.perf_counter() - started
        if recorder.wants("task"):
            run = recorder.begin_run(f"worker:{os.getpid()}", clock="wall")
            recorder.span(
                "task",
                getattr(fn, "__name__", "task"),
                started,
                elapsed,
                run=run,
            )
        recorder.incr("harness.tasks")
        recorder.incr("harness.task_seconds", elapsed)
        set_recorder(previous)
    return value, recorder.export_blob()


def _broker_worker_entry(
    directory, lease_ttl, max_attempts, task_timeout, durable, warm
) -> None:
    """Subprocess entry for one local broker worker.

    Installs the parent's pipeline-cache entries (*warm*, empty under
    fork, which inherits them), then runs the claim loop until the
    queue drains.  ``timeout_kills=True``: a task over its wall budget
    is reported failed and SIGKILLs this worker, so the slot is
    reclaimed and the task re-offered (with backoff) until quarantined.
    """
    from repro.experiments.broker import worker_loop

    parent = os.getppid()

    def exit_with_parent() -> None:
        # A killed sweep must not keep computing in the background; the
        # orphan's leases are expired by the next sweep on this host.
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=exit_with_parent, daemon=True).start()
    if warm:
        from repro.tuning.pipeline import default_cache

        default_cache().install_entries(warm)
    worker_loop(
        directory,
        lease_ttl=lease_ttl,
        max_attempts=max_attempts,
        task_timeout=task_timeout,
        timeout_kills=True,
        durable=durable,
    )


def _expire_dead_local_leases(broker) -> None:
    """Expire leases held by workers on this host whose processes are
    gone — left behind by an interrupted invocation — instead of
    waiting out their TTL."""
    host = socket.gethostname()
    for owner in broker.active_workers():
        name, _, pid = owner.rpartition(":")
        if name != host or not pid.isdigit():
            continue
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            broker.reclaim_expired(worker=owner)
        except OSError:
            pass  # alive, but not ours to signal


def _run_broker(
    fn: Callable,
    tasks: list,
    labels: Sequence[str],
    jobs: Optional[int],
    log: Optional[Callable],
    timeout: Optional[float],
    rec,
    target,
    start_method: Optional[str] = None,
    durable: bool = True,
) -> list:
    """Queue path of :func:`run_tasks`: enqueue, drive workers, replay
    in task order.

    A non-*durable* (throwaway) queue skips fsyncs.  Tasks that time
    out on their last attempt raise :class:`TaskTimeoutError`; other
    quarantined tasks — or tasks whose results cannot be verified — are
    rescued serially in-parent as the last resort, so a genuine poison
    task raises its real traceback in the caller.
    """
    from repro.experiments.broker import Broker, Lease, task_key

    traced = rec is not None
    run_fn = fn
    if traced:
        # sorted() so the partial's pickle — and with it every task's
        # content key and the sweep id — is deterministic across
        # processes and invocations.
        run_fn = functools.partial(
            _telemetry_task, fn, tuple(sorted(rec.categories))
        )
    broker = Broker(target, fsync=durable)
    total = len(tasks)
    sweep = broker.enqueue(run_fn, tasks, labels=labels, traced=traced)
    done = broker.replay(sweep, traced=traced)
    if log is not None and done:
        log(f"broker: {len(done)} of {total} task(s) already complete")
    remaining = total - len(done)
    if remaining:
        _expire_dead_local_leases(broker)
        local = min(worker_count(jobs), remaining)
        seen = set(done)

        def collect() -> None:
            """Load the results of newly finished tasks — while the
            workers compute the rest — and log one line for each."""
            fresh = [i for i in broker.done_indices(sweep) if i not in seen]
            if not fresh:
                return
            done.update(broker.replay(sweep, traced=traced, indices=fresh))
            for index in fresh:
                seen.add(index)
                if log is not None:
                    log(f"[{len(seen)}/{total}] {labels[index]}")

        _drive_broker_sweep(
            broker, sweep, local, log, timeout, remaining, collect,
            start_method, durable,
        )
        collect()
    missing = [index for index in range(total) if index not in done]
    if missing:
        quarantined = {
            idx: reason
            for _, idx, _, _, reason in broker.quarantined(sweep)
        }
        for index in missing:
            reason = quarantined.get(index, "")
            if TaskTimeoutError.__name__ in reason:
                # Rescuing a task that never returns would hang the
                # parent: a timeout on the last attempt is final.
                raise TaskTimeoutError(
                    f"task {labels[index]} timed out on its last attempt "
                    f"({reason})"
                )
        for count, index in enumerate(missing):
            if log is not None:
                why = quarantined.get(index, "result missing")
                log(
                    f"[rescue {count + 1}/{len(missing)}] {labels[index]} "
                    f"serially in parent ({why})"
                )
            key = task_key(run_fn, tasks[index])
            value = run_fn(tasks[index])
            broker.complete(
                Lease(sweep, index, key, labels[index], b"", 0, 0.0,
                      "parent-rescue"),
                value,
                traced=traced,
            )
            done[index] = value
    broker.close()
    results = [done[index] for index in range(total)]
    if traced:
        # Absorb worker traces in task order so re-based run ids are
        # deterministic whatever the completion order was.
        for index, wrapped in enumerate(results):
            value, blob = wrapped
            rec.absorb_blob(blob)
            results[index] = value
    return results


def _drive_broker_sweep(
    broker,
    sweep: str,
    local: int,
    log: Optional[Callable],
    timeout: Optional[float],
    remaining: int,
    collect: Callable,
    start_method: Optional[str] = None,
    durable: bool = True,
    poll_interval: float = 0.2,
) -> None:
    """Run *local* workers until *sweep* settles — every task done or
    quarantined — calling *collect* as tasks complete.

    A worker that exits abnormally is blamed exactly: its leases are
    expired on the spot (the attempt still counts) instead of lapsing a
    full lease TTL later, and its death is logged.  Dead workers are
    respawned while runnable work remains, up to a budget bounded by
    the per-task attempt limits (so a worker-killing task ends in
    quarantine, not an infinite respawn loop).  Once the sweep settles
    the remaining workers are stopped and reaped, so a worker that died
    after the last poll is still blamed and logged.
    """
    from repro.experiments.broker import worker_loop

    if local == 1:
        # In-process: deterministic, no subprocess to supervise.  A
        # timeout here cannot kill the worker (it is us); the lease
        # lapsing still re-offers the task to any other worker.  The
        # worker's own log lines are replaced by collect(), run each
        # time the worker has something to say.
        worker_loop(
            broker.directory,
            lease_ttl=broker.lease_ttl,
            max_attempts=broker.max_attempts,
            task_timeout=timeout,
            timeout_kills=False,
            poll_interval=poll_interval,
            log=lambda _line: collect(),
            durable=durable,
        )
        return
    context = multiprocessing.get_context(start_method)
    warm = b""
    if context.get_start_method() != "fork":
        from repro.tuning.pipeline import default_cache

        warm = default_cache().export_entries()
    entry_args = (
        broker.directory, broker.lease_ttl, broker.max_attempts, timeout,
        durable, warm,
    )
    host = socket.gethostname()

    def spawn():
        proc = context.Process(
            target=_broker_worker_entry, args=entry_args, daemon=True
        )
        proc.start()
        return proc

    def reap(procs: list) -> list:
        """The still-running workers of *procs*.  Each one that exited
        with a non-zero code loses its leases at once — its id is its
        host:pid, so exactly its leases — and its death is logged."""
        running = []
        for proc in procs:
            if proc.is_alive():
                running.append(proc)
            elif proc.exitcode != 0:
                broker.reclaim_expired(worker=f"{host}:{proc.pid}")
                if log is not None:
                    log(
                        f"broker: local worker {proc.pid} died "
                        f"(exit code {proc.exitcode})"
                    )
        return running

    workers = [spawn() for _ in range(local)]
    respawns = 0
    respawn_budget = remaining * broker.max_attempts + local
    try:
        while True:
            workers = reap(workers)
            counts = broker.counts(sweep)
            collect()
            if counts["pending"] == 0 and counts["leased"] == 0:
                return
            broker.reclaim_expired()
            while len(workers) < local and respawns < respawn_budget:
                workers.append(spawn())
                respawns += 1
                if log is not None:
                    log("broker: respawned a local worker")
            if not workers:
                # Workers keep dying faster than the attempt budget
                # burns down; stop supervising and let the parent
                # rescue whatever is left.
                if log is not None:
                    log("broker: worker respawn budget exhausted")
                return
            # Wake as soon as any worker exits, else once per poll.
            multiprocessing.connection.wait(
                [proc.sentinel for proc in workers], timeout=poll_interval
            )
    finally:
        # A worker that exited on its own between the last poll and
        # the sweep settling is not reaped yet.  Stop the rest, then
        # reap them all: those stopped here exit with -SIGTERM (or are
        # killed after the grace period) and are not blamed.
        deadline = time.monotonic() + 5.0
        stopped = set()
        for proc in workers:
            proc.terminate()
        for proc in workers:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()
                proc.join()
                stopped.add(proc.pid)
        reap([
            proc for proc in workers
            if proc.exitcode != -signal.SIGTERM and proc.pid not in stopped
        ])
