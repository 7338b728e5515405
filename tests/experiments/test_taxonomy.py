"""The shared terminal-state taxonomy and the status --watch surface."""

from __future__ import annotations

import pytest

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


def test_render_status_includes_event_tail(tmp_path):
    from repro.experiments.__main__ import _render_status
    from repro.experiments.broker import Broker

    rendered = _render_status(str(tmp_path))
    assert "empty broker" in rendered

    broker = Broker(tmp_path)
    sweep = broker.enqueue(_square, [1, 2], labels=["a", "b"])
    rendered = _render_status(str(tmp_path), events_tail=10)
    assert sweep in rendered
    assert "0/2 done" in rendered
    assert "last 10 event(s):" in rendered
    assert "enqueue" in rendered


def test_watch_flag_parses():
    from repro.experiments.__main__ import _parse_args

    args = _parse_args(["status", "somewhere", "--watch", "--watch-interval", "0.5"])
    assert args.watch and args.watch_interval == 0.5
    assert _parse_args(["status", "somewhere"]).watch is False
