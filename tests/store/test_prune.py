"""Age/LRU pruning of a store directory (``LocalStore.prune``) and the
re-verify guarantee for pruned objects copied back in."""

import os
import shutil
import time

import pytest

from repro.errors import StoreCorruptionError
from repro.store import LocalStore


def _backdate(store, name, age):
    path = store._ref_path(name)
    then = time.time() - age
    os.utime(path, (then, then))


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
    """A pruned object is not special afterwards: copying it back into
    the store (as ``cp -a``/``rsync`` from another host would) runs the
    same digest check on the next read as any cold read, so a copy that
    has since rotted cannot slip bad bytes into the store the prune
    emptied."""
    shared = LocalStore(tmp_path / "shared")
    local = LocalStore(tmp_path / "local")
    digest = shared.put(b"durable artifact")
    local.set_ref("exp/art", local.put(b"durable artifact"))

    local.prune(max_age=0.0, now=time.time() + 100.0)
    assert not local.has(digest)

    # Rot the other host's copy, then copy it back in; the read must
    # verify and refuse it rather than serve junk.
    shared._object_path(digest).write_bytes(b"rotten artifact!")
    local._object_path(digest).parent.mkdir(parents=True, exist_ok=True)
    shutil.copy2(shared._object_path(digest), local._object_path(digest))
    with pytest.raises(StoreCorruptionError):
        local.get(digest)
    assert not local.has(digest)

    # A healthy copy verifies and is served.
    healthy = LocalStore(tmp_path / "healthy")
    healthy.put(b"durable artifact")
    shutil.copy2(healthy._object_path(digest), local._object_path(digest))
    assert local.get(digest) == b"durable artifact"
