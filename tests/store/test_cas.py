"""Unit tests for the content-addressed store directory."""

import pytest

from repro.errors import StoreCorruptionError, StoreError
from repro.store import LocalStore, object_digest


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
