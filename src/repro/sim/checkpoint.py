"""Crash-safe checkpointing of live simulations.

A checkpoint is a single file holding one pickled
:meth:`Simulation.snapshot_state` payload behind a small integrity
envelope::

    REPROCKPT1\\n          magic (format identifier)
    <4-byte big-endian>   header length
    <JSON header>         {"length", "sha256", "sim_time", "version"}
    <pickle payload>      the snapshot dict

Files are written to a temporary name in the target directory and
published with :func:`os.replace` after an ``fsync``, so a reader never
observes a half-written checkpoint under the final name.  On load the
magic, payload length, and SHA-256 digest are all verified; any
mismatch (truncation, bit flip, torn write) raises
:class:`~repro.errors.CheckpointError` rather than silently restoring
wrong state.

:class:`CheckpointManager` layers policy on top: it owns a directory of
``ckpt-NNNNNNNN.ckpt`` files, decides *when* a snapshot is due on an
absolute ``k * interval`` sim-time grid (so a resumed run checkpoints
at the same sim times as an uninterrupted one), retains the newest
``keep`` files, and on restore walks newest-to-oldest past corrupt
files to the most recent valid snapshot.  The executor takes each
snapshot between events, at the first event at or past the due grid
point, so a resumed run stays bit-identical to an uninterrupted one.

The module is deliberately ignorant of :class:`Simulation` internals —
it duck-types ``sim.snapshot_state()`` — so it can be imported from the
harness and the CLI without touching the executor.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import pickle
import re
from pathlib import Path
from typing import Optional

from repro.errors import CheckpointError
from repro.env import env_number

__all__ = [
    "CHECKPOINT_INTERVAL_ENV",
    "CHECKPOINT_VERSION",
    "CheckpointManager",
    "DEFAULT_CHECKPOINT_INTERVAL",
    "TASK_CHECKPOINT_DIR_ENV",
    "build_checkpoint_bytes",
    "load_checkpoint",
    "parse_checkpoint",
    "save_checkpoint",
    "task_checkpoint_dir",
    "task_checkpoint_manager",
]

MAGIC = b"REPROCKPT1\n"
CHECKPOINT_VERSION = 1
DEFAULT_CHECKPOINT_INTERVAL = 10.0

#: Environment variables through which the harness hands each task its
#: checkpoint directory and cadence (see ``run_tasks`` and
#: ``runner.run_technique_point``).
TASK_CHECKPOINT_DIR_ENV = "REPRO_TASK_CHECKPOINT_DIR"
CHECKPOINT_INTERVAL_ENV = "REPRO_CHECKPOINT_INTERVAL"

_FILE_RE = re.compile(r"^ckpt-(\d{8})\.ckpt$")


def build_checkpoint_bytes(state: dict) -> bytes:
    """The full checkpoint envelope (magic + header + payload) for
    *state* — what :func:`save_checkpoint` writes."""
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    header = json.dumps(
        {
            "length": len(payload),
            "sha256": hashlib.sha256(payload).hexdigest(),
            "sim_time": state.get("now"),
            "version": CHECKPOINT_VERSION,
        },
        sort_keys=True,
    ).encode("ascii")
    return MAGIC + len(header).to_bytes(4, "big") + header + payload


def _write_envelope(envelope: bytes, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(envelope)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def save_checkpoint(state: dict, path) -> Path:
    """Atomically write *state* (a snapshot dict) to *path*.

    The file appears under its final name only after the payload has
    been fully written and fsynced, so a crash mid-save leaves at worst
    a stale ``*.tmp`` file behind, never a truncated checkpoint.
    """
    return _write_envelope(build_checkpoint_bytes(state), path)


def parse_checkpoint(raw: bytes, label: str = "<bytes>") -> dict:
    """Verify a checkpoint envelope and return the snapshot dict.

    *label* names the source in error messages.

    Raises:
        CheckpointError: wrong magic or format version, truncation, a
            payload whose SHA-256 digest does not match the header, or
            a payload that does not unpickle to a snapshot dict.
    """
    if not raw.startswith(MAGIC):
        raise CheckpointError(f"{label}: not a repro checkpoint (bad magic)")
    body = raw[len(MAGIC):]
    if len(body) < 4:
        raise CheckpointError(f"{label}: truncated checkpoint (no header)")
    header_len = int.from_bytes(body[:4], "big")
    header_raw = body[4:4 + header_len]
    if len(header_raw) < header_len:
        raise CheckpointError(f"{label}: truncated checkpoint (short header)")
    try:
        header = json.loads(header_raw.decode("ascii"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise CheckpointError(f"{label}: corrupt checkpoint header") from exc
    if not isinstance(header, dict) or header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{label}: unsupported checkpoint version "
            f"{header.get('version') if isinstance(header, dict) else header!r}"
        )
    payload = body[4 + header_len:]
    if len(payload) != header.get("length"):
        raise CheckpointError(
            f"{label}: truncated checkpoint "
            f"({len(payload)} of {header.get('length')} payload bytes)"
        )
    if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
        raise CheckpointError(
            f"{label}: checkpoint digest mismatch (corrupt payload)"
        )
    try:
        state = pickle.loads(payload)
    except Exception as exc:
        raise CheckpointError(
            f"{label}: checkpoint payload does not unpickle: {exc}"
        ) from exc
    if not isinstance(state, dict):
        raise CheckpointError(
            f"{label}: checkpoint payload is not a snapshot dict"
        )
    return state


def load_checkpoint(path) -> dict:
    """Read and verify a checkpoint file, returning the snapshot dict.

    Raises:
        CheckpointError: if the file is unreadable, has the wrong
            magic or format version, is truncated, or the payload's
            SHA-256 digest does not match the header.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    return parse_checkpoint(raw, label=str(path))


class CheckpointManager:
    """Owns one directory of numbered checkpoints for one simulation run.

    Args:
        directory: where ``ckpt-NNNNNNNN.ckpt`` files live (created on
            demand).
        interval: simulated seconds between snapshots.  Due times sit
            on the absolute ``k * interval`` grid, so a run resumed at
            ``t=12.3`` with ``interval=5`` checkpoints next at 15.0 —
            exactly where the uninterrupted run would have.
        keep: how many of the newest checkpoints to retain.  At least
            two, so a checkpoint corrupted on disk still leaves a valid
            predecessor to fall back to.
    """

    def __init__(self, directory, interval: float = DEFAULT_CHECKPOINT_INTERVAL,
                 keep: int = 2):
        if not (interval > 0 and math.isfinite(interval)):
            raise CheckpointError(
                f"checkpoint interval must be positive and finite, got {interval}"
            )
        if keep < 2:
            raise CheckpointError(f"keep must be at least 2, got {keep}")
        self.directory = Path(directory)
        self.interval = float(interval)
        self.keep = int(keep)
        self.saves = 0
        #: Corrupt files skipped while looking for the latest valid
        #: snapshot (surfaced so callers can log the fallback).
        self.corrupt_skipped = 0
        self.next_due = self.interval
        existing = self.checkpoint_files()
        self._seq = (
            int(_FILE_RE.match(existing[-1].name).group(1)) + 1 if existing else 0
        )

    def checkpoint_files(self) -> list:
        """All well-named checkpoint files, oldest first."""
        if not self.directory.is_dir():
            return []
        return sorted(
            entry for entry in self.directory.iterdir()
            if _FILE_RE.match(entry.name)
        )

    def first_due(self, now: float) -> float:
        """The first grid point strictly after *now*."""
        return (math.floor(now / self.interval) + 1) * self.interval

    def save(self, sim, at: Optional[float] = None) -> Path:
        """Snapshot *sim* into the next numbered file and prune old ones.

        *at* is the sim time that triggered the save (the next event's
        timestamp); ``next_due`` advances to the first grid point after
        it so a burst of overdue events produces one snapshot, not one
        per event.
        """
        state = sim.snapshot_state()
        path = self.directory / f"ckpt-{self._seq:08d}.ckpt"
        _write_envelope(build_checkpoint_bytes(state), path)
        self._seq += 1
        self.saves += 1
        base = state.get("now", 0.0) if at is None else at
        self.next_due = self.first_due(base)
        self._prune()
        return path

    def latest_state(self) -> Optional[dict]:
        """The newest snapshot that passes verification, or ``None``.

        Corrupt files are skipped (counted in ``corrupt_skipped``), so
        a damaged newest checkpoint falls back to its predecessor and a
        fully corrupt directory falls back to a clean start — never to
        silently wrong state.
        """
        for path in reversed(self.checkpoint_files()):
            try:
                return load_checkpoint(path)
            except CheckpointError:
                self.corrupt_skipped += 1
        return None

    def _prune(self) -> None:
        for stale in self.checkpoint_files()[:-self.keep]:
            try:
                stale.unlink()
            except OSError:
                pass


@contextlib.contextmanager
def task_checkpoint_dir(directory):
    """Export *directory* as the running task's checkpoint directory.

    While the context is active :data:`TASK_CHECKPOINT_DIR_ENV` points
    at *directory*, so checkpoint-aware point functions (which call
    :func:`task_checkpoint_manager`) save there — and resume from there
    when it already holds a valid snapshot.  The previous value is
    restored on exit, so nested scopes unwind cleanly.  The broker
    worker loop wraps each task of a durable sweep in this scope, and
    the harness wraps the in-parent rescue of a quarantined one.
    """
    previous = os.environ.get(TASK_CHECKPOINT_DIR_ENV)
    os.environ[TASK_CHECKPOINT_DIR_ENV] = str(directory)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(TASK_CHECKPOINT_DIR_ENV, None)
        else:
            os.environ[TASK_CHECKPOINT_DIR_ENV] = previous


def task_checkpoint_manager(
    subdir: Optional[str] = None,
) -> Optional[CheckpointManager]:
    """The manager a harness task should checkpoint through, if any.

    ``run_tasks`` points :data:`TASK_CHECKPOINT_DIR_ENV` at a per-task
    directory while a task of a durable sweep runs; checkpoint-aware
    point functions call this to pick the manager up.  Returns ``None``
    when the task is not running under a durable sweep.

    Args:
        subdir: optional subdirectory under the task's checkpoint
            directory.  A point function running *several* simulations
            must give each its own subdir — sharing one directory would
            make the second simulation "resume" from the first's
            snapshot.
    """
    directory = os.environ.get(TASK_CHECKPOINT_DIR_ENV)
    if not directory:
        return None
    if subdir:
        directory = os.path.join(directory, subdir)
    interval = env_number(
        CHECKPOINT_INTERVAL_ENV, float, DEFAULT_CHECKPOINT_INTERVAL,
        CheckpointError,
    )
    return CheckpointManager(directory, interval=interval)
