"""One taxonomy of terminal job states.

Several subsystems retire jobs for reasons other than success, and
before this module each invented its own prose: the sweep broker
reclaims expired leases and quarantines poison tasks, and the
open-system engine cancels simulated jobs while they wait or run.  The
strings land in durable places — the broker's ``events`` audit table,
telemetry args — so drift between them makes post-mortems needlessly
hard ("lease expired" vs "worker died" vs "blamed").

Every terminal reason is now ``"<state>: <detail>"`` where ``<state>``
is one of the :data:`TERMINAL_STATES` below, and every emitter builds
the string through the helpers here.  :func:`state_of` recovers the
state from a stored reason, so audits can bucket historic rows without
parsing prose.
"""

from __future__ import annotations

__all__ = [
    "CANCELLED",
    "FAILED",
    "LEASE_EXPIRED",
    "TERMINAL_STATES",
    "cancelled_reason",
    "failed_reason",
    "lease_expired_reason",
    "state_of",
]

#: A job was cancelled by an external request (open-system departures).
CANCELLED = "cancelled"

#: A task attempt raised; it may be retried up to its attempt limit.
FAILED = "failed"

#: A worker's lease on a task expired — the worker died or hung and the
#: broker reclaimed the task for re-offer (or quarantine).
LEASE_EXPIRED = "lease-expired"

#: Every terminal state a reason string may carry.
TERMINAL_STATES = frozenset({CANCELLED, FAILED, LEASE_EXPIRED})


def lease_expired_reason(attempts: int, limit: int, owner: str) -> str:
    """Reason for a broker task reclaimed from a dead or hung worker."""
    return (
        f"{LEASE_EXPIRED}: attempt {attempts}/{limit} "
        f"(worker {owner} died or hung)"
    )


def failed_reason(attempts: int, limit: int, detail: str) -> str:
    """Reason for a broker task attempt that raised."""
    return f"{FAILED}: attempt {attempts}/{limit}: {detail}"


def cancelled_reason(scope: str) -> str:
    """Reason for an open-system job cancellation.

    *scope* says where the cancellation landed: ``"queued"`` (removed
    from a runqueue before completion) or ``"missed"`` (the job
    completed, never arrived, or could not be removed before the
    cancellation fired).
    """
    return f"{CANCELLED}: {scope}"


def state_of(reason: str) -> str:
    """The terminal state a reason string was built with, or ``""``
    for strings predating (or outside) the taxonomy."""
    state, sep, _ = (reason or "").partition(":")
    if sep and state in TERMINAL_STATES:
        return state
    return ""
