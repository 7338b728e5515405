"""Shared networking hardening for the repo's HTTP surfaces.

Two subsystems speak HTTP over stdlib sockets — the artifact store
(:mod:`repro.store`) and the networked sweep broker
(:mod:`repro.experiments.broker_net`) — and both need the same three
defenses.  This module is their single implementation, and the one
place that decides how a remote endpoint or a task is retried, timed
out and given up on: every retry, backoff, cooldown and grace default
is a constant below (only the lease TTL and the per-task timeout stay
settable from the environment, through :func:`env_number`).

:class:`CooldownBreaker`
    A cooldown circuit breaker with a negative-result cache.  The first
    transport failure *trips* the breaker: until the cooldown elapses
    every operation short-circuits without touching the network, so a
    dead server costs one bounded timeout per cooldown window, never
    one per call.  Individual keys (a digest the server 404'd, a ref it
    does not hold) can be negative-cached for the same window.

:class:`RetryPolicy`
    Bounded exponential backoff with jitter for transient failures.
    Jitter decorrelates a fleet of workers retrying against the same
    recovering server (no thundering herd); the attempt budget keeps a
    hard-down server from hanging a caller.

:class:`AuthPolicy`
    Bearer-token authentication plus a readonly mode, enforced
    server-side.  With a token configured every request must carry
    ``Authorization: Bearer <token>`` (compared in constant time) or is
    rejected with 401; readonly mode rejects mutating requests with 403
    regardless of auth.  Without a token the server stays open —
    backwards compatible with every existing deployment.

Clients resolve their token from the ``REPRO_AUTH_TOKEN`` environment
variable (:func:`resolve_token`) so one exported secret covers the
store tiers and the broker transport alike.
"""

from __future__ import annotations

import hmac
import os
import random
import threading
import time
from typing import Dict, Iterator, Optional, Tuple

__all__ = [
    "AUTH_TOKEN_ENV",
    "AuthPolicy",
    "BACKOFF_BASE",
    "BROKER_COOLDOWN",
    "BROKER_TIMEOUT",
    "CooldownBreaker",
    "DOWN_GRACE",
    "LEASE_TTL",
    "MAX_ATTEMPTS",
    "RetryPolicy",
    "STORE_COOLDOWN",
    "STORE_TIMEOUT",
    "TRANSPORT_ATTEMPTS",
    "bearer_headers",
    "env_number",
    "resolve_token",
]

#: Seconds a broker lease lives between heartbeats (``REPRO_LEASE_TTL``
#: overrides it).  Workers renew at a third of this, so a healthy
#: worker never comes near expiry while a dead one is reclaimed within
#: one TTL.
LEASE_TTL = 30.0

#: Claims allowed per task before quarantine (first attempt included).
MAX_ATTEMPTS = 3

#: Base (seconds) of the exponential backoff between re-offers of a
#: failed task: attempt *n* waits ``BACKOFF_BASE * 2**(n-1)``.
BACKOFF_BASE = 0.5

#: Seconds a worker or submitter keeps polling a hard-down networked
#: broker before abandoning the wait.
DOWN_GRACE = 60.0

#: Per-request timeout (seconds) of the HTTP broker transport.
BROKER_TIMEOUT = 5.0

#: Seconds the broker transport's breaker stays open once a request's
#: tries are spent.  Shorter than the store's: the broker is the work
#: source, so workers re-probe a recovering server promptly.
BROKER_COOLDOWN = 5.0

#: Seconds an HTTP store tier may take before it is declared slow and
#: tripped into its cooldown.
STORE_TIMEOUT = 2.0

#: Seconds a failed store tier stays tripped — every operation an
#: instant miss — before it is probed again.  Negative results (a
#: digest or ref the tier did not have) are cached for the same window.
STORE_COOLDOWN = 30.0

#: Tries per logical broker-transport request, the first included.
TRANSPORT_ATTEMPTS = 3


def env_number(name: str, cast, default, error_cls):
    """The environment variable *name* parsed with *cast* (``int`` or
    ``float``), or *default* when it is unset or blank.

    A value *cast* rejects raises *error_cls* naming the variable, so
    each caller keeps its own error type.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return cast(raw)
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise error_cls(f"{name}={raw!r} is not {kind}") from None


#: Environment variable holding the shared bearer token.  Servers
#: started with ``--token`` (or this variable) require it on every
#: request; clients attach it automatically when set.
AUTH_TOKEN_ENV = "REPRO_AUTH_TOKEN"


def resolve_token(explicit: Optional[str] = None) -> Optional[str]:
    """The effective auth token: the explicit argument, else the
    ``REPRO_AUTH_TOKEN`` environment variable, else ``None`` (open)."""
    if explicit:
        return explicit
    env = os.environ.get(AUTH_TOKEN_ENV, "").strip()
    return env or None


def bearer_headers(token: Optional[str]) -> Dict[str, str]:
    """Request headers carrying *token* (empty when unauthenticated)."""
    if not token:
        return {}
    return {"Authorization": f"Bearer {token}"}


class AuthPolicy:
    """Server-side bearer-token + readonly policy.

    Args:
        token: required bearer token; ``None`` leaves the server open.
        readonly: reject every mutating request with 403 (mirrors,
            public result servers), whatever the auth outcome.
    """

    def __init__(self, token: Optional[str] = None,
                 readonly: bool = False) -> None:
        self.token = token or None
        self.readonly = bool(readonly)

    def check(self, authorization: Optional[str],
              mutating: bool) -> Optional[Tuple[int, str]]:
        """``None`` if the request may proceed, else ``(status, why)``.

        *authorization* is the raw ``Authorization`` header value.  The
        token comparison is constant-time (``hmac.compare_digest``), so
        the server never leaks prefix information through timing.
        """
        if self.token is not None:
            presented = ""
            if authorization and authorization.startswith("Bearer "):
                presented = authorization[len("Bearer "):]
            if not hmac.compare_digest(presented, self.token):
                return 401, "missing or invalid bearer token"
        if mutating and self.readonly:
            return 403, "server is readonly"
        return None


class CooldownBreaker:
    """Cooldown circuit breaker with a per-key negative cache.

    Thread-safe; one instance is shared by every thread using a given
    remote endpoint, so a single trip silences the whole process for
    the cooldown window.
    """

    def __init__(self, cooldown: float) -> None:
        self.cooldown = float(cooldown)
        self._lock = threading.Lock()
        self._dead_until = 0.0
        self._negative: Dict[str, float] = {}

    def trip(self) -> None:
        """Open the breaker for one cooldown window."""
        with self._lock:
            self._dead_until = time.monotonic() + self.cooldown

    def reset(self) -> None:
        """Close the breaker immediately (a request just succeeded)."""
        with self._lock:
            self._dead_until = 0.0

    @property
    def tripped(self) -> bool:
        with self._lock:
            return time.monotonic() < self._dead_until

    def remaining(self) -> float:
        """Seconds until the breaker closes (0 when already closed)."""
        with self._lock:
            return max(0.0, self._dead_until - time.monotonic())

    def unavailable(self, key: Optional[str] = None) -> bool:
        """Whether the endpoint (or *key* specifically) should be
        treated as an instant miss right now."""
        now = time.monotonic()
        with self._lock:
            if now < self._dead_until:
                return True
            if key is not None:
                until = self._negative.get(key)
                if until is not None:
                    if now < until:
                        return True
                    del self._negative[key]
        return False

    def remember_miss(self, key: str) -> None:
        """Negative-cache *key* for one cooldown window."""
        with self._lock:
            self._negative[key] = time.monotonic() + self.cooldown

    def forget(self, key: str) -> None:
        """Drop *key* from the negative cache (it was just written)."""
        with self._lock:
            self._negative.pop(key, None)


class RetryPolicy:
    """Bounded exponential backoff with jitter.

    ``delays()`` yields the sleep before each retry: attempt *i*
    (0-based) backs off ``base * 2**i`` capped at *cap*, scaled by a
    uniform jitter in ``[0.5, 1.5)`` so retrying workers decorrelate.

    Args:
        attempts: total tries including the first (>= 1).
        base: first backoff in seconds.
        cap: upper bound on any single backoff.
        jitter: disable only in tests that need exact timings.
    """

    def __init__(self, attempts: int = TRANSPORT_ATTEMPTS, base: float = 0.1,
                 cap: float = 2.0, jitter: bool = True) -> None:
        self.attempts = max(1, int(attempts))
        self.base = float(base)
        self.cap = float(cap)
        self.jitter = bool(jitter)

    def delays(self) -> Iterator[float]:
        """The ``attempts - 1`` sleeps between tries."""
        for i in range(self.attempts - 1):
            delay = min(self.cap, self.base * (2 ** i))
            if self.jitter:
                delay *= 0.5 + random.random()
            yield delay
