"""Store-side networking hardening: auth, readonly, and age/LRU
pruning (local, remote over ``POST /gc``, and the re-verify guarantee
for pruned-then-refetched objects)."""

import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import StoreError
from repro.store import HTTPStore, LocalStore, TieredStore, object_digest
from repro.store.server import make_server


def _serve(directory, **kwargs):
    server = make_server(directory, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    return server, f"http://{host}:{port}"


def _backdate(store, name, age):
    path = store._ref_path(name)
    then = time.time() - age
    os.utime(path, (then, then))


# -- LocalStore.prune --------------------------------------------------------


def test_prune_by_age_drops_idle_refs_and_their_objects(tmp_path):
    store = LocalStore(tmp_path)
    old = store.put(b"old artifact")
    store.set_ref("sweep/old", old)
    new = store.put(b"new artifact")
    store.set_ref("sweep/new", new)
    _backdate(store, "sweep/old", 1000.0)

    dropped, removed, freed = store.prune(max_age=500.0)
    assert (dropped, removed) == (1, 1)
    assert freed == len(b"old artifact")
    assert store.get_ref("sweep/old") is None
    assert not store.has(old)
    # The fresh ref and its object are untouched.
    assert store.get(new) == b"new artifact"


def test_prune_by_bytes_evicts_least_recently_touched(tmp_path):
    store = LocalStore(tmp_path)
    payloads = {name: f"payload {name}".encode() * 10
                for name in ("a", "b", "c")}
    for age, name in ((300.0, "a"), (200.0, "b"), (100.0, "c")):
        store.set_ref(name, store.put(payloads[name]))
        _backdate(store, name, age)

    budget = len(payloads["b"]) + len(payloads["c"])
    dropped, removed, _freed = store.prune(max_bytes=budget)
    assert (dropped, removed) == (1, 1)  # only "a", the coldest
    assert store.get_ref("a") is None
    assert sorted(store.refs()) == ["b", "c"]


def test_prune_counts_shared_object_bytes_once(tmp_path):
    """Two refs to one digest: the object's bytes count once against
    the budget, and the object survives while either ref does."""
    store = LocalStore(tmp_path)
    digest = store.put(b"shared bytes")
    store.set_ref("first", digest)
    store.set_ref("second", digest)
    _backdate(store, "first", 500.0)

    dropped, removed, freed = store.prune(max_bytes=0)
    # Both refs must go before the object's bytes can be freed; the
    # budget of zero evicts both, and the object exactly once.
    assert (dropped, removed) == (2, 1)
    assert freed == len(b"shared bytes")


@pytest.mark.parametrize("policy", [
    {"max_age": 250.0},
    {"max_bytes": 40},
    {"max_age": 250.0, "max_bytes": 20},
])
def test_prune_ignores_scribbled_refs_and_temp_files(tmp_path, policy):
    """The stat-only listing also sees a ref whose body is not a digest
    and a writer's stray ``*.tmp``; neither raises, and the valid refs
    prune exactly as in a store without them."""
    now = time.time()

    def build(root):
        store = LocalStore(root)
        for age, name in ((300.0, "a"), (200.0, "b/c"), (100.0, "d")):
            store.set_ref(name, store.put(f"payload {name}".encode() * 2))
            path = store._ref_path(name)
            os.utime(path, (now - age, now - age))
        return store

    clean = build(tmp_path / "clean")
    dirty = build(tmp_path / "dirty")
    dirty._ref_path("scribbled").write_text("not a digest\n")
    stray = dirty._ref_path("b/c").with_name("c.123.456.tmp")
    stray.write_text("torn")

    expected = clean.prune(now=now, **policy)
    assert dirty.prune(now=now, **policy) == expected
    assert expected[0] >= 1
    assert dirty.refs() == clean.refs()
    assert not stray.exists()  # gc sweeps crashed writers' temp files


def test_prune_noop_within_budget(tmp_path):
    store = LocalStore(tmp_path)
    store.set_ref("keep", store.put(b"tiny"))
    assert store.prune(max_age=3600.0, max_bytes=10_000) == (0, 0, 0)
    assert store.get(store.get_ref("keep")) == b"tiny"


def test_pruned_object_is_reverified_on_refetch(tmp_path):
    """A pruned object is not special afterwards: re-fetching it from a
    remote tier runs the same digest check as any cold read, so a
    remote that has since rotted cannot slip bad bytes into the cache
    the prune emptied."""
    shared_dir = tmp_path / "shared"
    server, url = _serve(shared_dir)
    try:
        shared = LocalStore(shared_dir)
        local = LocalStore(tmp_path / "local")
        tiered = TieredStore(local=local,
                             remotes=[HTTPStore(url, cooldown=0.2)])
        digest = shared.put(b"durable artifact")
        shared.set_ref("exp/art", digest)

        assert tiered.fetch("exp/art") == b"durable artifact"
        assert local.has(digest)  # promoted into the pruned-to-be tier

        local.prune(max_age=0.0, now=time.time() + 100.0)
        assert not local.has(digest)

        # Rot the remote copy; the read-through refetch must verify
        # and refuse it rather than repopulate the cache with junk.
        path = shared._object_path(digest)
        path.write_bytes(b"rotten artifact!")
        fresh = TieredStore(local=local,
                            remotes=[HTTPStore(url, cooldown=0.2)])
        assert fresh.get_object(digest) is None
        assert not local.has(digest)

        # Heal the remote; the next cold read verifies and lands.
        path.write_bytes(b"durable artifact")
        healed = TieredStore(local=local,
                             remotes=[HTTPStore(url, cooldown=0.2)])
        assert healed.get_object(digest) == b"durable artifact"
        assert local.get(digest) == b"durable artifact"
    finally:
        server.shutdown()
        server.server_close()


# -- remote prune over POST /gc ---------------------------------------------


def test_http_prune_runs_remote_gc(tmp_path):
    directory = tmp_path / "served"
    server, url = _serve(directory)
    try:
        backing = LocalStore(directory)
        digest = backing.put(b"remote payload")
        backing.set_ref("cold/ref", digest)
        _backdate(backing, "cold/ref", 900.0)
        backing.set_ref("warm/ref", backing.put(b"warm payload"))

        remote = HTTPStore(url, cooldown=0.2)
        out = remote.prune(max_age=400.0)
        assert out == {
            "refs_dropped": 1,
            "objects_removed": 1,
            "bytes_freed": len(b"remote payload"),
        }
        assert not backing.has(digest)
        assert backing.get_ref("warm/ref") is not None
    finally:
        server.shutdown()
        server.server_close()


def test_http_prune_dead_tier_returns_none(tmp_path):
    server, url = _serve(tmp_path / "served")
    remote = HTTPStore(url, timeout=0.5, cooldown=30.0)
    server.shutdown()
    server.server_close()
    assert remote.prune(max_age=1.0) is None
    assert remote.tripped  # breaker open: next prune is instant
    assert remote.prune(max_age=1.0) is None


def test_gc_endpoint_rejects_malformed_body(tmp_path):
    server, url = _serve(tmp_path / "served")
    try:
        req = urllib.request.Request(
            url + "/gc", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=5.0)
        assert err.value.code == 400
    finally:
        server.shutdown()
        server.server_close()


# -- auth and readonly -------------------------------------------------------


def test_store_server_auth_rejects_unauthenticated_writes(tmp_path):
    server, url = _serve(tmp_path / "served", token="hunter2")
    try:
        digest = object_digest(b"secret artifact")
        req = urllib.request.Request(
            f"{url}/obj/{digest}", data=b"secret artifact", method="PUT"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=5.0)
        assert err.value.code == 401

        # The HTTPStore client swallows the rejection into a miss...
        anon = HTTPStore(url, cooldown=0.2)
        assert anon.put(b"secret artifact") is None
        # ...but an authorized client lands the write.
        auth = HTTPStore(url, cooldown=0.2, token="hunter2")
        assert auth.put(b"secret artifact") == digest
        assert auth.get(digest) == b"secret artifact"
    finally:
        server.shutdown()
        server.server_close()


def test_store_server_readonly_allows_reads_rejects_writes(tmp_path):
    directory = tmp_path / "served"
    backing = LocalStore(directory)
    digest = backing.put(b"published")
    backing.set_ref("pub/one", digest)
    server, url = _serve(directory, readonly=True)
    try:
        remote = HTTPStore(url, cooldown=0.2)
        assert remote.get(digest) == b"published"
        assert remote.get_ref("pub/one") == digest
        req = urllib.request.Request(
            f"{url}/obj/{object_digest(b'new')}", data=b"new",
            method="PUT",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=5.0)
        assert err.value.code == 403
    finally:
        server.shutdown()
        server.server_close()


def test_http_prune_policy_refusal_raises_not_miss(tmp_path):
    """401/403 on /gc is a *policy* failure: surfaced as StoreError so
    an operator's prune never silently no-ops, unlike transport faults
    which degrade to None."""
    server, url = _serve(tmp_path / "served", token="hunter2")
    try:
        anon = HTTPStore(url, cooldown=0.2)
        with pytest.raises(StoreError, match="HTTP 401"):
            anon.prune(max_age=1.0)
        assert not anon.tripped  # policy failures do not trip the breaker
    finally:
        server.shutdown()
        server.server_close()


def test_auth_token_resolves_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_AUTH_TOKEN", "envtoken")
    server, url = _serve(tmp_path / "served")  # server reads the env too
    try:
        remote = HTTPStore(url, cooldown=0.2)  # client reads the env
        digest = remote.put(b"env authed")
        assert digest is not None
        monkeypatch.setenv("REPRO_AUTH_TOKEN", "wrong")
        stranger = HTTPStore(url, cooldown=0.2)
        assert stranger.put(b"should fail") is None
    finally:
        server.shutdown()
        server.server_close()
