"""Networked transport for the sweep broker: HTTP client + server.

The claim/lease broker of :mod:`repro.experiments.broker` requires a
shared filesystem; this module puts the same queue on the network so a
fleet with nothing in common but an HTTP route can run one sweep.  A
stdlib :class:`~http.server.ThreadingHTTPServer` (the same shape as
:mod:`repro.store.server`) fronts one :class:`Broker` — every state
transition still runs through the broker's ``BEGIN IMMEDIATE``
transactions, so the server adds reach, never new race conditions —
and :class:`HTTPBroker` is the drop-in client: it exposes the claim/
heartbeat/complete/fail/replay surface of :class:`Broker`, so
:func:`~repro.experiments.broker.worker_loop`, the harness's broker
backend, and the CLI verbs work against either transport unchanged
(:func:`~repro.experiments.broker.connect` picks by target string).

Robustness model, layer by layer:

bounded timeouts + retries
    Every request carries a timeout (:data:`repro.net.BROKER_TIMEOUT`)
    and a bounded exponential-backoff-with-jitter retry budget
    (:data:`repro.net.TRANSPORT_ATTEMPTS`); a hard-down server costs a
    few bounded timeouts, never a hang.

idempotency keys
    Every mutating request carries a fresh ``Idempotency-Key`` header,
    reused verbatim across its retries.  The server records the
    response it served for each key (durably, in ``queue.db``), so a
    retry after a dropped response replays the original outcome instead
    of re-executing — a retried ``claim`` cannot double-lease, and a
    retried ``complete`` converges on the digest-named file-before-row
    discipline the broker already uses for racing local writers.

circuit breaker
    The first exhausted retry budget trips a cooldown breaker (shared
    implementation with :class:`repro.store.cas.HTTPStore`); until the
    cooldown (:data:`repro.net.BROKER_COOLDOWN`) elapses every call raises
    :class:`~repro.errors.BrokerUnavailableError` instantly, no
    network.  A dead server costs a worker at most one timeout per
    cooldown window.

graceful degradation
    ``BrokerUnavailableError`` is a :class:`~repro.errors.BrokerError`,
    so ``run_tasks`` falls back to a queue on its own host; workers poll
    through outages (heartbeat failures are absorbed — the lease
    simply lapses if the outage outlives the TTL, and the re-offered
    task's recomputed result dedupes by content key); and abandoned
    operations surface a ``broker-down`` taxonomy reason
    (:func:`repro.taxonomy.broker_down_reason`) — never a hung or
    corrupted sweep.

auth
    Bearer-token + readonly enforcement via
    :class:`repro.net.AuthPolicy`, shared with the store server:
    ``--token`` (or ``REPRO_AUTH_TOKEN``) rejects unauthenticated
    requests with 401, ``--readonly`` rejects mutations with 403.

Endpoints (all JSON unless noted)::

    GET  /api/ping                     server config handshake
    GET  /api/counts|sweeps|traced|quarantined|results|events|workers
    GET  /api/sessions|diff            results-DB surfaces
    GET  /api/payload/<sweep>/<key>    raw result bytes (client verifies)
    POST /api/enqueue|claim|heartbeat|complete|fail|reclaim|requeue
    POST /api/session|bless            results-DB mutations
"""

from __future__ import annotations

import base64
import hashlib
import http.client
import json
import os
import pickle
import re
import tempfile
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.errors import BrokerError, BrokerUnavailableError, LeaseLostError
from repro.experiments.broker import (
    BROKER_URL_ENV,
    Broker,
    Lease,
    _resolve_priority,
    default_worker_id,
    prepare_enqueue,
)
from repro.experiments.results_db import ResultsDB, format_diff
from repro.net import (
    BACKOFF_BASE,
    BROKER_COOLDOWN,
    BROKER_TIMEOUT,
    LEASE_TTL,
    MAX_ATTEMPTS,
    TRANSPORT_ATTEMPTS,
    AuthPolicy,
    CooldownBreaker,
    RetryPolicy,
    bearer_headers,
    resolve_token,
)
from repro.store import default_store
from repro.taxonomy import broker_down_reason
from repro.telemetry.context import current_recorder

__all__ = [
    "BROKER_URL_ENV",
    "BrokerRequestHandler",
    "HTTPBroker",
    "make_broker_server",
    "serve",
]

#: Refuse request bodies above this size (mirrors the store server).
MAX_BODY = 256 * 1024 * 1024

_PAYLOAD_RE = re.compile(
    r"^/api/payload/([A-Za-z0-9._-]{1,80})/([0-9a-f]{8,64})$"
)


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _unb64(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"))


# ---------------------------------------------------------------------------
# client
# ---------------------------------------------------------------------------


class HTTPBroker:
    """Client for one broker server; drop-in for :class:`Broker`.

    Lease semantics — TTL, attempt budget, backoff — are governed by
    the *server's* broker (it runs the transactions); the constructor
    handshakes ``/api/ping`` and adopts the server's values, so the
    heartbeat cadence and supervision math on this side match what the
    queue actually enforces.  *timeout*, *cooldown* and *retries*
    (tries per request) default to the :mod:`repro.net` transport
    constants; tests shorten them to drill outages quickly.

    Raises:
        BrokerUnavailableError: the server cannot be reached (after the
            transport's bounded retries) — ``run_tasks`` degrades to
            a queue on its own host on this.
        BrokerError: the server refused us (401/403) or rejected a
            request as invalid; not retried.
    """

    def __init__(
        self,
        url: str,
        timeout: float = BROKER_TIMEOUT,
        cooldown: float = BROKER_COOLDOWN,
        retries: int = TRANSPORT_ATTEMPTS,
        token: Optional[str] = None,
    ) -> None:
        if not url.startswith(("http://", "https://")):
            raise BrokerError(f"not an http(s) broker URL: {url!r}")
        self.url = url.rstrip("/")
        self.directory = None
        self.timeout = float(timeout)
        self._breaker = CooldownBreaker(float(cooldown))
        self._retry = RetryPolicy(attempts=int(retries), base=0.1, cap=2.0)
        self._headers = bearer_headers(resolve_token(token))
        self._traced: dict = {}
        self._telemetry_run = None
        # Handshake: adopt the queue's actual lease semantics.
        cfg = self._call("/api/ping")
        self.lease_ttl = float(cfg.get("lease_ttl", LEASE_TTL))
        self.max_attempts = int(cfg.get("max_attempts", MAX_ATTEMPTS))
        self.backoff_base = float(cfg.get("backoff_base", BACKOFF_BASE))
        self.readonly = bool(cfg.get("readonly", False))

    @property
    def target(self) -> str:
        return self.url

    # -- transport ----------------------------------------------------------

    def _note(self, name: str, kind: Optional[str] = None,
              detail: Optional[str] = None) -> None:
        rec = current_recorder()
        if not rec.enabled:
            return
        rec.incr(name)
        if kind is not None and rec.wants("broker"):
            if self._telemetry_run is None:
                self._telemetry_run = rec.begin_run(
                    f"broker-net:{default_worker_id()}", clock="wall"
                )
            rec.instant(
                "broker", kind, time.perf_counter(),
                run=self._telemetry_run,
                args={"url": self.url, "detail": detail},
            )

    def _trip(self, detail: str) -> None:
        self._breaker.trip()
        self._note("broker.net.breaker_trip", "breaker_trip", detail)

    def breaker_state(self) -> str:
        """Human-readable breaker state for status surfaces."""
        remaining = self._breaker.remaining()
        if remaining > 0:
            return f"open ({remaining:.0f}s until next probe)"
        return "closed"

    def _request(self, method: str, path: str, body: Optional[bytes],
                 headers: dict) -> bytes:
        req = urllib.request.Request(
            self.url + path, data=body, method=method
        )
        for name, value in headers.items():
            req.add_header(name, value)
        with urllib.request.urlopen(req, timeout=self.timeout) as resp:
            return resp.read()

    def _call(self, path: str, payload: Optional[dict] = None,
              raw: bool = False):
        """One logical request with retries, idempotency, breaker.

        GETs (``payload is None``) are naturally idempotent; POSTs
        carry a fresh ``Idempotency-Key`` reused across retries so the
        server replays (never re-executes) a mutation whose response
        was lost in flight.
        """
        mutating = payload is not None
        headers = dict(self._headers)
        body = None
        if mutating:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
            headers["Idempotency-Key"] = os.urandom(16).hex()
        if self._breaker.tripped:
            raise BrokerUnavailableError(
                broker_down_reason(
                    self.url,
                    f"circuit breaker {self.breaker_state()}",
                )
            )
        detail = "unreachable"
        sleeps = list(self._retry.delays()) + [None]
        for sleep in sleeps:
            try:
                data = self._request(
                    "POST" if mutating else "GET", path, body, headers
                )
            except urllib.error.HTTPError as exc:
                info = b""
                try:
                    info = exc.read()
                except Exception:
                    pass
                exc.close()
                why = _error_detail(info) or f"HTTP {exc.code}"
                if exc.code in (401, 403):
                    raise BrokerError(
                        f"broker {self.url} refused the request: "
                        f"{exc.code} ({why})"
                    ) from None
                if exc.code == 409:
                    raise LeaseLostError(why) from None
                if exc.code == 404 and raw:
                    return None
                if exc.code < 500:
                    raise BrokerError(
                        f"broker {self.url} rejected {path}: "
                        f"{exc.code} ({why})"
                    ) from None
                detail = f"HTTP {exc.code} ({why})"
            except (OSError, urllib.error.URLError, TimeoutError,
                    http.client.HTTPException) as exc:
                detail = f"{type(exc).__name__}: {exc}" if str(exc) else (
                    type(exc).__name__
                )
            else:
                if raw:
                    return data
                try:
                    return json.loads(data.decode("utf-8"))
                except (UnicodeDecodeError, ValueError):
                    detail = "torn response (invalid JSON)"
            if sleep is None:
                break
            self._note("broker.net.retry", "retry", detail)
            time.sleep(sleep)
        self._trip(detail)
        raise BrokerUnavailableError(broker_down_reason(self.url, detail))

    def _get(self, path: str, **params):
        if params:
            clean = {k: v for k, v in params.items() if v is not None}
            if clean:
                path += "?" + urllib.parse.urlencode(clean)
        return self._call(path)

    # -- enqueue ------------------------------------------------------------

    def enqueue(
        self,
        fn: Callable,
        tasks: Sequence,
        labels: Optional[Sequence[str]] = None,
        sweep: Optional[str] = None,
        traced: bool = False,
        priority: Optional[int] = None,
    ) -> str:
        """Shred the sweep client-side (identical keys and sweep id to
        a filesystem enqueue) and submit it in one request."""
        ref, derived, items = prepare_enqueue(
            fn, tasks, labels=labels, traced=traced
        )
        out = self._call("/api/enqueue", {
            "ref": ref,
            "sweep": sweep or derived,
            "traced": bool(traced),
            "priority": _resolve_priority(priority),
            "items": [
                {"key": key, "label": label, "payload": _b64(payload)}
                for key, label, payload in items
            ],
        })
        return out["sweep"]

    # -- claim / lease ------------------------------------------------------

    def claim(self, worker: Optional[str] = None,
              now: Optional[float] = None) -> Optional[Lease]:
        worker = worker or default_worker_id()
        out = self._call("/api/claim", {"worker": worker})
        info = out.get("lease")
        if not info:
            return None
        return Lease(
            info["sweep"], int(info["index"]), info["key"], info["label"],
            _unb64(info["payload"]), int(info["attempt"]),
            float(info["deadline"]), info["worker"],
        )

    def heartbeat(self, lease: Lease, now: Optional[float] = None) -> float:
        out = self._call("/api/heartbeat", {
            "sweep": lease.sweep, "index": lease.index,
            "worker": lease.worker,
        })
        lease.deadline = float(out["deadline"])
        return lease.deadline

    def reclaim_expired(self, now: Optional[float] = None,
                        worker: Optional[str] = None) -> list:
        out = self._call("/api/reclaim", {"worker": worker})
        return [tuple(row) for row in out.get("reclaimed", [])]

    # -- completion ---------------------------------------------------------

    def complete(self, lease: Lease, value, traced: bool = False,
                 now: Optional[float] = None) -> bool:
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        out = self._call("/api/complete", {
            "sweep": lease.sweep, "index": lease.index, "key": lease.key,
            "label": lease.label, "worker": lease.worker,
            "traced": bool(traced), "value": _b64(payload),
        })
        return bool(out.get("recorded"))

    def fail(self, lease: Lease, error,
             now: Optional[float] = None) -> str:
        detail = f"{type(error).__name__}: {error}" if isinstance(
            error, BaseException
        ) else str(error)
        out = self._call("/api/fail", {
            "sweep": lease.sweep, "index": lease.index,
            "worker": lease.worker, "detail": detail,
        })
        return out["state"]

    # -- inspection / replay ------------------------------------------------

    def counts(self, sweep: Optional[str] = None) -> dict:
        out = self._get("/api/counts", sweep=sweep)
        return {
            state: int(out.get(state, 0))
            for state in ("pending", "leased", "done", "quarantined")
        }

    def done_indices(self, sweep: str) -> list:
        return list(self._get("/api/done", sweep=sweep)["indices"])

    def sweeps(self) -> list:
        return [tuple(row) for row in self._get("/api/sweeps")["sweeps"]]

    def sweep_traced(self, sweep: str) -> bool:
        if sweep not in self._traced:
            self._traced[sweep] = bool(
                self._get("/api/traced", sweep=sweep)["traced"]
            )
        return self._traced[sweep]

    def quarantined(self, sweep: Optional[str] = None) -> list:
        out = self._get("/api/quarantined", sweep=sweep)
        return [tuple(row) for row in out["rows"]]

    def requeue_quarantined(self, sweep: Optional[str] = None) -> int:
        return int(self._call("/api/requeue", {"sweep": sweep})["count"])

    def settled(self, sweep: str) -> bool:
        c = self.counts(sweep)
        return c["pending"] == 0 and c["leased"] == 0

    def result_rows(self, sweep: str) -> list:
        out = self._get("/api/results", sweep=sweep)
        return [tuple(row) for row in out["label_rows"]]

    def result_digests(self, sweep: str) -> dict:
        return {label: sha for label, _key, sha in self.result_rows(sweep)}

    def replay(self, sweep: str, traced: bool = False,
               indices=None) -> dict:
        """``{task index: value}`` with every payload digest-verified
        (of the given task *indices* only, when given).

        Payloads resolve from the shared artifact store first (the
        broker mirrors completions there) and fall back to the server's
        ``/api/payload`` route; either way the bytes are verified
        against the recorded digest before unpickling, so a damaged
        transfer reads as "absent" (the task re-runs), never as
        silently wrong bytes.
        """
        info = self._get("/api/results", sweep=sweep)
        index_keys = info["index_keys"]
        if indices is not None:
            indices = set(indices)
            index_keys = [row for row in index_keys if row[0] in indices]
        wanted = {key for _, key in index_keys}
        store = default_store()
        by_key = {}
        for key, digest, rec_traced in info["rows"]:
            if key not in wanted or bool(rec_traced) != bool(traced):
                continue
            data = store.get_object(digest) if store is not None else None
            if data is None:
                data = self._call(f"/api/payload/{sweep}/{key}", raw=True)
                if data is not None and (
                    hashlib.sha256(data).hexdigest() != digest
                ):
                    data = None
                if data is not None and store is not None:
                    store.put_object(data)
            if data is None:
                continue
            try:
                by_key[key] = pickle.loads(data)
            except Exception:
                continue
        return {
            int(idx): by_key[key] for idx, key in index_keys if key in by_key
        }

    def events(self, sweep: Optional[str] = None, limit: int = 200) -> list:
        out = self._get("/api/events", sweep=sweep, limit=int(limit))
        return [tuple(row) for row in out["events"]]

    def active_workers(self, now: Optional[float] = None) -> list:
        return list(self._get("/api/workers")["workers"])

    def checkpoint_dir(self, key: str) -> str:
        """Local scratch for the task's checkpoints.  The server's
        ``ckpt/`` tree is not reachable over HTTP; cross-host resume
        still works because snapshots are published to the shared
        artifact store under the content key."""
        scope = hashlib.sha256(self.url.encode("utf-8")).hexdigest()[:12]
        return str(
            Path(tempfile.gettempdir())
            / f"repro-broker-net-{scope}" / "ckpt" / key
        )

    # -- results DB (server-side) -------------------------------------------

    def record_session(self, sweep: str, fn: str, total: int) -> int:
        out = self._call("/api/session", {
            "sweep": sweep, "fn": fn, "total": int(total),
            "host": default_worker_id(),
        })
        return int(out["session"])

    def sessions(self, limit: int = 50) -> list:
        out = self._get("/api/sessions", limit=int(limit))
        return [tuple(row) for row in out["sessions"]]

    def bless_all(self) -> dict:
        """Bless every settled sweep server-side (the DB lives next to
        the queue); returns ``{"blessed": [...], "skipped": [...]}``."""
        return self._call("/api/bless", {})

    def diff_info(self, sweep: str) -> dict:
        """Server-side golden diff: ``{"show": bool, "text": str}``."""
        return self._get("/api/diff", sweep=sweep)

    def close(self) -> None:
        pass


def _error_detail(body: bytes) -> str:
    try:
        parsed = json.loads(body.decode("utf-8"))
        return str(parsed.get("error", "")) if isinstance(
            parsed, dict
        ) else ""
    except (UnicodeDecodeError, ValueError):
        return ""


# ---------------------------------------------------------------------------
# server
# ---------------------------------------------------------------------------


class BrokerRequestHandler(BaseHTTPRequestHandler):
    """Maps the ``/api/*`` route table onto one shared :class:`Broker`
    (``self.server.broker``; SQLite connections are per-thread, so the
    threading server needs no extra locking — every transition is a
    ``BEGIN IMMEDIATE`` transaction exactly as on a shared filesystem).
    """

    protocol_version = "HTTP/1.1"
    verbose = False

    def log_message(self, fmt, *args):  # noqa: D102 - stdlib override
        if self.verbose:
            BaseHTTPRequestHandler.log_message(self, fmt, *args)

    @property
    def broker(self) -> Broker:
        return self.server.broker

    @property
    def auth(self) -> AuthPolicy:
        return self.server.auth

    # -- plumbing -----------------------------------------------------------

    def _reply(self, code: int, body: bytes = b"",
               content_type: str = "application/json") -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def _reply_json(self, code: int, payload) -> None:
        self._reply(
            code, json.dumps(payload, sort_keys=True).encode("utf-8")
        )

    def _guard(self, mutating: bool) -> bool:
        verdict = self.auth.check(
            self.headers.get("Authorization"), mutating
        )
        if verdict is None:
            return True
        code, why = verdict
        self._reply_json(code, {"error": why})
        return False

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        if length < 0 or length > MAX_BODY:
            raise BrokerError(f"request body of {length} bytes refused")
        return self.rfile.read(length)

    def _params(self) -> dict:
        return dict(urllib.parse.parse_qsl(self.path.partition("?")[2]))

    # -- GET routes ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if not self._guard(mutating=False):
            return
        path = self.path.partition("?")[0]
        try:
            self._dispatch_get(path)
        except BrokerError as exc:
            self._reply_json(400, {"error": str(exc)})
        except Exception as exc:  # never let a handler kill the server
            self._reply_json(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )

    do_HEAD = do_GET  # noqa: N815 - stdlib naming

    def _dispatch_get(self, path: str) -> None:
        broker = self.broker
        params = self._params()
        sweep = params.get("sweep")
        if path == "/api/ping":
            self._reply_json(200, {
                "ok": True,
                "readonly": self.auth.readonly,
                "lease_ttl": broker.lease_ttl,
                "max_attempts": broker.max_attempts,
                "backoff_base": broker.backoff_base,
            })
        elif path == "/api/counts":
            self._reply_json(200, broker.counts(sweep))
        elif path == "/api/done":
            self._reply_json(
                200, {"indices": broker.done_indices(sweep or "")}
            )
        elif path == "/api/sweeps":
            self._reply_json(200, {"sweeps": broker.sweeps()})
        elif path == "/api/traced":
            self._reply_json(
                200, {"traced": broker.sweep_traced(sweep or "")}
            )
        elif path == "/api/quarantined":
            self._reply_json(200, {"rows": broker.quarantined(sweep)})
        elif path == "/api/results":
            if not sweep:
                raise BrokerError("results needs ?sweep=")
            out = broker.replay_manifest(sweep)
            out["label_rows"] = [
                list(row) for row in broker.result_rows(sweep)
            ]
            self._reply_json(200, out)
        elif path == "/api/events":
            limit = int(params.get("limit", 200))
            self._reply_json(
                200, {"events": broker.events(sweep, limit=limit)}
            )
        elif path == "/api/workers":
            self._reply_json(200, {"workers": broker.active_workers()})
        elif path == "/api/sessions":
            limit = int(params.get("limit", 50))
            self._reply_json(
                200,
                {"sessions": self.server.results_db().sessions(limit=limit)},
            )
        elif path == "/api/diff":
            if not sweep:
                raise BrokerError("diff needs ?sweep=")
            self._reply_json(200, self._diff_info(sweep))
        else:
            match = _PAYLOAD_RE.match(path)
            if match:
                data = broker.result_payload(match.group(1), match.group(2))
                if data is None:
                    self._reply_json(404, {"error": "no such result"})
                else:
                    self._reply(
                        200, data, content_type="application/octet-stream"
                    )
                return
            self._reply_json(404, {"error": f"no such endpoint {path}"})

    def _diff_info(self, sweep: str) -> dict:
        broker = self.broker
        db = self.server.results_db()
        fn = None
        for row in broker.sweeps():
            if row[0] == sweep:
                fn = row[1]
                break
        if fn is None:
            raise BrokerError(f"no such sweep {sweep}")
        rows = broker.result_rows(sweep)
        show = bool(rows or db.golden_for(fn))
        text = format_diff(db.diff(fn, rows)) if show else ""
        return {"show": show, "text": text}

    # -- POST routes --------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if not self._guard(mutating=True):
            return
        path = self.path.partition("?")[0]
        handler = self._POST_ROUTES.get(path)
        if handler is None:
            self._reply_json(404, {"error": f"no such endpoint {path}"})
            return
        try:
            body = self._read_body()
            payload = json.loads(body.decode("utf-8")) if body else {}
            if not isinstance(payload, dict):
                raise ValueError("not an object")
        except BrokerError as exc:
            self._reply_json(400, {"error": str(exc)})
            return
        except (UnicodeDecodeError, ValueError):
            self._reply_json(
                400, {"error": "request body must be a JSON object"}
            )
            return
        # Idempotency: a key we already served replays its recorded
        # response — the mutation itself is NOT re-executed, so a retry
        # after a dropped response converges instead of double-acting.
        idem = self.headers.get("Idempotency-Key")
        if idem:
            stored = self.broker.idempotent_response(idem)
            if stored is not None:
                self._reply(200, stored.encode("utf-8"))
                return
        try:
            status, out = handler(self, payload)
        except LeaseLostError as exc:
            status, out = 409, {"error": str(exc)}
        except BrokerError as exc:
            status, out = 400, {"error": str(exc)}
        except Exception as exc:  # surface as a retryable 500
            status, out = 500, {"error": f"{type(exc).__name__}: {exc}"}
        encoded = json.dumps(out, sort_keys=True).encode("utf-8")
        if idem and status == 200:
            # Record durably BEFORE the response leaves: if the client
            # saw our bytes, a replay of its key must exist.
            self.broker.store_idempotent(idem, encoded.decode("utf-8"))
        self._reply(status, encoded)

    def _post_enqueue(self, p: dict) -> tuple:
        items = [
            (item["key"], item["label"], _unb64(item["payload"]))
            for item in p.get("items", [])
        ]
        sweep = self.broker.enqueue_raw(
            str(p.get("ref", "?")), items, sweep=str(p["sweep"]),
            traced=bool(p.get("traced")),
            priority=int(p.get("priority", 0)),
        )
        return 200, {"sweep": sweep}

    def _post_claim(self, p: dict) -> tuple:
        lease = self.broker.claim(str(p.get("worker") or "") or None)
        if lease is None:
            return 200, {"lease": None}
        return 200, {"lease": {
            "sweep": lease.sweep, "index": lease.index, "key": lease.key,
            "label": lease.label, "payload": _b64(lease.payload),
            "attempt": lease.attempt, "deadline": lease.deadline,
            "worker": lease.worker,
        }}

    def _lease_shim(self, p: dict) -> Lease:
        return Lease(
            str(p["sweep"]), int(p["index"]), p.get("key", ""),
            p.get("label", ""), b"", int(p.get("attempt", 0)), 0.0,
            str(p.get("worker", "")),
        )

    def _post_heartbeat(self, p: dict) -> tuple:
        deadline = self.broker.heartbeat(self._lease_shim(p))
        return 200, {"deadline": deadline}

    def _post_complete(self, p: dict) -> tuple:
        recorded = self.broker.complete_raw(
            str(p["sweep"]), int(p["index"]), str(p["key"]),
            str(p.get("label", "")), str(p.get("worker", "")) or None,
            _unb64(p["value"]), traced=bool(p.get("traced")),
        )
        return 200, {"recorded": recorded}

    def _post_fail(self, p: dict) -> tuple:
        state = self.broker.fail(
            self._lease_shim(p), str(p.get("detail", "unknown error"))
        )
        return 200, {"state": state}

    def _post_reclaim(self, p: dict) -> tuple:
        return 200, {
            "reclaimed": self.broker.reclaim_expired(worker=p.get("worker"))
        }

    def _post_requeue(self, p: dict) -> tuple:
        count = self.broker.requeue_quarantined(p.get("sweep"))
        return 200, {"count": count}

    def _post_session(self, p: dict) -> tuple:
        session = self.server.results_db().record_session(
            str(p["sweep"]), str(p.get("fn", "?")),
            int(p.get("total", 0)),
            host=str(p.get("host", "")) or self.client_address[0],
        )
        return 200, {"session": session}

    def _post_bless(self, p: dict) -> tuple:
        broker = self.broker
        db = self.server.results_db()
        blessed = []
        skipped = []
        for sweep, fn, _total, _traced, _created in broker.sweeps():
            if not broker.settled(sweep):
                skipped.append([sweep, fn])
                continue
            rows = broker.result_rows(sweep)
            if not rows:
                continue
            count = db.bless(fn, rows, sweep=sweep)
            blessed.append([sweep, fn, count])
        return 200, {"blessed": blessed, "skipped": skipped}

    _POST_ROUTES = {
        "/api/enqueue": _post_enqueue,
        "/api/claim": _post_claim,
        "/api/heartbeat": _post_heartbeat,
        "/api/complete": _post_complete,
        "/api/fail": _post_fail,
        "/api/reclaim": _post_reclaim,
        "/api/requeue": _post_requeue,
        "/api/session": _post_session,
        "/api/bless": _post_bless,
    }


def make_broker_server(
    directory,
    host: str = "127.0.0.1",
    port: int = 0,
    lease_ttl: Optional[float] = None,
    max_attempts: int = MAX_ATTEMPTS,
    token: Optional[str] = None,
    readonly: bool = False,
    verbose: bool = False,
    handler_base=None,
) -> ThreadingHTTPServer:
    """A ready-to-run threading broker server over *directory*.

    ``port=0`` binds an ephemeral port (read ``server.server_address``).
    *token* defaults to ``REPRO_AUTH_TOKEN``; *handler_base* lets fault-
    injection tests substitute a misbehaving handler subclass.
    """
    handler = type(
        "BoundBrokerRequestHandler",
        (handler_base or BrokerRequestHandler,),
        {"verbose": verbose},
    )
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    server.broker = Broker(
        directory, lease_ttl=lease_ttl, max_attempts=max_attempts
    )
    server.auth = AuthPolicy(token=resolve_token(token), readonly=readonly)
    # ResultsDB holds one sqlite connection (not thread-safe), so the
    # threading server hands each handler thread its own instance.
    db_local = threading.local()
    db_dir = Path(directory)

    def results_db() -> ResultsDB:
        db = getattr(db_local, "db", None)
        if db is None:
            db = ResultsDB.for_broker(db_dir)
            db_local.db = db
        return db

    server.results_db = results_db
    return server


def serve(
    directory,
    host: str = "127.0.0.1",
    port: int = 8751,
    lease_ttl: Optional[float] = None,
    max_attempts: int = MAX_ATTEMPTS,
    token: Optional[str] = None,
    readonly: bool = False,
    verbose: bool = False,
) -> None:
    """Serve the broker at *directory* until interrupted (the
    ``serve`` CLI verb of ``python -m repro.experiments``)."""
    server = make_broker_server(
        directory, host=host, port=port, lease_ttl=lease_ttl,
        max_attempts=max_attempts, token=token, readonly=readonly,
        verbose=verbose,
    )
    bound_host, bound_port = server.server_address[:2]
    print(
        f"serving broker {directory} on http://{bound_host}:{bound_port}"
        + (" (readonly)" if readonly else ""),
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
