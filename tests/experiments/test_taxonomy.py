"""The shared terminal-state taxonomy."""

from __future__ import annotations

from repro.taxonomy import (
    TERMINAL_STATES,
    cancelled_reason,
    failed_reason,
    lease_expired_reason,
    state_of,
)


def test_every_helper_emits_a_parseable_state():
    reasons = [
        lease_expired_reason(3, 3, "host-1:42"),
        failed_reason(2, 3, "ValueError: boom"),
        cancelled_reason("queued"),
        cancelled_reason("missed"),
    ]
    for reason in reasons:
        assert state_of(reason) in TERMINAL_STATES, reason


def test_state_of_tolerates_foreign_strings():
    assert state_of("") == ""
    assert state_of(None) == ""
    assert state_of("something went wrong") == ""
    assert state_of("failedX: nope") == ""


def _square(x):
    return x * x


def test_broker_quarantine_reasons_carry_taxonomy_states(tmp_path):
    from repro.experiments.broker import Broker

    broker = Broker(tmp_path, max_attempts=1, lease_ttl=0.01)
    broker.enqueue(_square, [1], labels=["only"])
    lease = broker.claim("w1")
    assert lease is not None
    state = broker.fail(lease, "RuntimeError: boom")
    assert state == "quarantined"
    rows = broker.quarantined()
    assert len(rows) == 1
    reason = rows[0][4]
    assert state_of(reason) == "failed"
    assert "RuntimeError: boom" in reason


def test_lease_reclamation_reason_carries_taxonomy_state(tmp_path):
    import time

    from repro.experiments.broker import Broker

    broker = Broker(tmp_path, max_attempts=1, lease_ttl=0.01)
    broker.enqueue(_square, [1], labels=["only"])
    assert broker.claim("w1") is not None
    time.sleep(0.02)
    reclaimed = broker.reclaim_expired()
    assert reclaimed and reclaimed[0][3] == "quarantined"
    reason = broker.quarantined()[0][4]
    assert state_of(reason) == "lease-expired"
    assert "w1" in reason
