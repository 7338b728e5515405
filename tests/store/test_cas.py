"""Unit tests for the content-addressed store tiers."""

import pytest

from repro.errors import StoreCorruptionError, StoreError
from repro.store import (
    LocalStore,
    TieredStore,
    default_store,
    object_digest,
    parse_store_url,
    remote_tiers,
)


# -- LocalStore -------------------------------------------------------------


def test_local_put_get_roundtrip(tmp_path):
    store = LocalStore(tmp_path)
    digest = store.put(b"artifact")
    assert digest == object_digest(b"artifact")
    assert store.has(digest)
    assert store.get(digest) == b"artifact"
    assert store.objects() == [digest]
    assert store.size_bytes() == len(b"artifact")


def test_local_put_is_idempotent(tmp_path):
    store = LocalStore(tmp_path)
    assert store.put(b"same") == store.put(b"same")
    assert len(store.objects()) == 1


def test_local_put_rejects_digest_mismatch(tmp_path):
    store = LocalStore(tmp_path)
    with pytest.raises(StoreError, match="mismatch"):
        store.put(b"data", "0" * 64)


def test_local_get_missing_is_none(tmp_path):
    store = LocalStore(tmp_path)
    assert store.get("0" * 64) is None
    assert not store.has("0" * 64)


def test_local_rejects_malformed_digest(tmp_path):
    store = LocalStore(tmp_path)
    with pytest.raises(StoreError, match="digest"):
        store.get("../../../etc/passwd")


def test_corrupt_object_quarantined_on_read(tmp_path):
    store = LocalStore(tmp_path)
    digest = store.put(b"good bytes")
    store._object_path(digest).write_bytes(b"bad bytes")
    with pytest.raises(StoreCorruptionError, match="verification"):
        store.get(digest)
    # The damaged file is out of the addressable layout: the next read
    # is a clean miss, and the evidence is preserved in quarantine/.
    assert store.get(digest) is None
    assert list((tmp_path / "quarantine").iterdir())
    assert store.stats.corruptions == 1


def test_refs_roundtrip_and_listing(tmp_path):
    store = LocalStore(tmp_path)
    d1 = store.put(b"one")
    d2 = store.put(b"two")
    store.set_ref("pipeline/typing-abc", d1)
    store.set_ref("ckpt/deadbeef/baseline", d2)
    assert store.get_ref("pipeline/typing-abc") == d1
    assert store.refs("pipeline") == {"pipeline/typing-abc": d1}
    assert store.refs() == {
        "pipeline/typing-abc": d1,
        "ckpt/deadbeef/baseline": d2,
    }
    assert store.get_ref("pipeline/nope") is None


def test_ref_names_validated(tmp_path):
    store = LocalStore(tmp_path)
    digest = store.put(b"x")
    for bad in ("../escape", "a//b", "", "a/../b", "sp ace"):
        with pytest.raises(StoreError, match="ref"):
            store.set_ref(bad, digest)


def test_torn_ref_is_dropped_not_trusted(tmp_path):
    store = LocalStore(tmp_path)
    store.put(b"x")
    path = tmp_path / "refs" / "pipeline" / "torn"
    path.parent.mkdir(parents=True)
    path.write_text("not-a-digest")
    assert store.get_ref("pipeline/torn") is None
    assert not path.exists()


def test_gc_drops_unreferenced_objects(tmp_path):
    store = LocalStore(tmp_path)
    live = store.put(b"live object")
    store.put(b"orphan one")
    store.put(b"orphan two!")
    store.set_ref("pipeline/live", live)
    removed, freed = store.gc()
    assert removed == 2
    assert freed == len(b"orphan one") + len(b"orphan two!")
    assert store.objects() == [live]
    assert store.get(live) == b"live object"


def test_gc_keep_set_protects_objects(tmp_path):
    store = LocalStore(tmp_path)
    kept = store.put(b"kept")
    removed, _ = store.gc(keep=[kept])
    assert removed == 0
    assert store.has(kept)


# -- TieredStore ------------------------------------------------------------


def test_tiered_fetch_promotes_into_faster_tiers(tmp_path):
    shared = LocalStore(tmp_path / "shared")
    digest = shared.put(b"warm artifact")
    shared.set_ref("pipeline/warm", digest)
    local = LocalStore(tmp_path / "local")
    tiered = TieredStore(local=local, remotes=[shared])
    assert tiered.fetch("pipeline/warm") == b"warm artifact"
    # Promoted: local tier now holds both the object and the ref.
    assert local.get(digest) == b"warm artifact"
    assert local.get_ref("pipeline/warm") == digest
    # And the memory tier answers the repeat without touching disk.
    assert tiered.fetch("pipeline/warm") == b"warm artifact"
    assert tiered.memory_hits == 1


def test_tiered_publish_writes_all_writable_tiers(tmp_path):
    local = LocalStore(tmp_path / "local")
    shared = LocalStore(tmp_path / "shared")
    tiered = TieredStore(local=local, remotes=[shared], push_remotes=True)
    digest = tiered.publish("ckpt/abc123", b"snapshot")
    assert local.get_ref("ckpt/abc123") == digest
    assert shared.get_ref("ckpt/abc123") == digest
    assert shared.get(digest) == b"snapshot"


def test_tiered_corrupt_remote_falls_through(tmp_path):
    shared = LocalStore(tmp_path / "shared")
    digest = shared.put(b"payload")
    shared.set_ref("pipeline/entry", digest)
    shared._object_path(digest).write_bytes(b"flipped bits")
    tiered = TieredStore(local=LocalStore(tmp_path / "local"),
                         remotes=[shared])
    assert tiered.fetch("pipeline/entry") is None
    assert tiered.get_object(digest) is None


def test_tiered_missing_remote_falls_through(tmp_path):
    """A tier directory that does not exist is a miss, and the next
    tier answers; reading through it never creates it."""
    missing = tmp_path / "never-mounted"
    warm = LocalStore(tmp_path / "warm")
    digest = warm.put(b"warm entry")
    warm.set_ref("pipeline/entry", digest)
    tiered = TieredStore(local=LocalStore(tmp_path / "local"),
                         remotes=[LocalStore(missing), warm])
    assert tiered.fetch("pipeline/entry") == b"warm entry"
    assert tiered.list_refs("pipeline") == {"pipeline/entry": digest}
    assert not missing.exists()


def test_tiered_stats_shape(tmp_path):
    tiered = TieredStore(local=LocalStore(tmp_path))
    tiered.publish("pipeline/x", b"x")
    stats = tiered.stats()
    assert "memory" in stats["tiers"]
    assert any(name.startswith("dir:") for name in stats["tiers"])


# -- configuration ----------------------------------------------------------


def test_parse_store_url_directories_in_order_http_rejected(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    tiers = parse_store_url(f"{first}, ,{second}")
    assert [tier.root for tier in tiers] == [first, second]
    assert all(isinstance(tier, LocalStore) for tier in tiers)
    # An http(s) entry is refused, not read as a directory named "http:".
    for url in ("http://127.0.0.1:9", "https://store.invalid"):
        with pytest.raises(StoreError, match="HTTP store transport"):
            parse_store_url(f"{first},{url}")


def test_http_store_url_in_environment_raises(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
    monkeypatch.setenv("REPRO_STORE_URL", f"{tmp_path},http://127.0.0.1:9")
    with pytest.raises(StoreError, match="HTTP store transport"):
        remote_tiers()
    with pytest.raises(StoreError, match="HTTP store transport"):
        default_store()


def test_default_store_unconfigured_is_none(monkeypatch):
    monkeypatch.delenv("REPRO_STORE_URL", raising=False)
    monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
    assert default_store() is None


def test_default_store_rebuilt_on_env_change(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "a"))
    monkeypatch.delenv("REPRO_STORE_URL", raising=False)
    first = default_store()
    assert first is not None and first.local is not None
    assert default_store() is first  # cached while the env is stable
    monkeypatch.setenv("REPRO_STORE_URL", str(tmp_path / "b"))
    second = default_store()
    assert second is not first
    assert len(second.remotes) == 1
    assert remote_tiers() == second.remotes
