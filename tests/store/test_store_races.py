"""Concurrency and consumer-integration tests for the artifact store.

Same playbook as the broker race tests: hypothesis drives the
interleavings, real threads/processes race on one store directory, and
the invariant under test is the CAS one — any interleaving of
same-digest publishers yields exactly one canonical object.  The broker
result housekeeping and the store CLI are covered here too.
"""

import json
import multiprocessing
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.broker import Broker
from repro.store import LocalStore, object_digest
from repro.store.__main__ import main as store_main


def _square(x):
    return x * x


def _put_worker(root, payload, barrier):
    barrier.wait(timeout=30)
    LocalStore(root).put(payload)


# -- concurrent publishers --------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_interleaved_same_digest_publishers_one_object(
    data, tmp_path_factory
):
    """Any thread interleaving of same-digest pushes leaves exactly one
    canonical, verified object and no torn temp files."""
    root = tmp_path_factory.mktemp("cas-race")
    payload = data.draw(st.binary(min_size=1, max_size=512))
    writers = data.draw(st.integers(min_value=2, max_value=6))
    store = LocalStore(root)
    barrier = threading.Barrier(writers)
    digests = []
    errors = []

    def push():
        try:
            barrier.wait(timeout=30)
            digests.append(store.put(payload))
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    threads = [threading.Thread(target=push) for _ in range(writers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not errors
    expected = object_digest(payload)
    assert digests == [expected] * writers
    assert store.objects() == [expected]
    assert store.get(expected) == payload
    assert not list((root / "objects").rglob("*.tmp"))


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_interleaved_mixed_publishers_all_canonical(data, tmp_path_factory):
    """Racing publishers of overlapping payload sets converge on one
    object per distinct payload, each verified."""
    root = tmp_path_factory.mktemp("cas-mixed")
    payloads = data.draw(
        st.lists(st.binary(min_size=1, max_size=64), min_size=2,
                 max_size=8)
    )
    store = LocalStore(root)
    barrier = threading.Barrier(len(payloads))

    def push(blob):
        barrier.wait(timeout=30)
        store.put(blob)

    threads = [
        threading.Thread(target=push, args=(blob,)) for blob in payloads
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    expected = sorted({object_digest(blob) for blob in payloads})
    assert store.objects() == expected
    for blob in payloads:
        assert store.get(object_digest(blob)) == blob


def test_two_processes_pushing_same_digest(tmp_path):
    """Two real processes racing on one store directory publish one
    canonical object (temp names are pid-qualified, replace is atomic)."""
    ctx = multiprocessing.get_context("fork")
    payload = b"pushed from two processes at once"
    barrier = ctx.Barrier(2)
    procs = [
        ctx.Process(target=_put_worker, args=(str(tmp_path), payload,
                                              barrier))
        for _ in range(2)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=30)
    assert all(proc.exitcode == 0 for proc in procs)
    store = LocalStore(tmp_path)
    assert store.objects() == [object_digest(payload)]
    assert store.get(object_digest(payload)) == payload
    assert not list((tmp_path / "objects").rglob("*.tmp"))


def test_gc_sweeps_crashed_writer_temp_files(tmp_path):
    store = LocalStore(tmp_path)
    digest = store.put(b"survivor")
    store.set_ref("pipeline/live", digest)
    shard = tmp_path / "objects" / "ab"
    shard.mkdir(parents=True, exist_ok=True)
    (shard / f"{'ab' * 32}.12345.67890.tmp").write_bytes(b"torn write")
    store.gc()
    assert not list((tmp_path / "objects").rglob("*.tmp"))
    assert store.get(digest) == b"survivor"


# -- broker results ----------------------------------------------------------


def test_broker_replay_without_store_still_misses(tmp_path):
    broker = Broker(tmp_path / "broker", fsync=False)
    sweep = broker.enqueue(_square, [5])
    lease = broker.claim(worker="host-a")
    broker.complete(lease, 25)
    for entry in broker.results_dir.iterdir():
        entry.unlink()
    # results/ next to the queue is the one copy: a missing file is
    # simply absent, and the task re-runs.
    assert broker.replay(sweep) == {}
    broker.close()


# -- CLI --------------------------------------------------------------------


def test_cli_stats_gc_roundtrip(tmp_path, capsys):
    src = tmp_path / "src"
    store = LocalStore(src)
    digest = store.put(b"artifact body")
    store.set_ref("pipeline/entry", digest)
    store.put(b"orphan")

    assert store_main(["stats", "--dir", str(src)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["tiers"][f"dir:{src}"]["objects"] == 2

    assert store_main(["gc", "--dir", str(src)]) == 0
    assert store.objects() == [digest]


def test_cli_gc_requires_a_target(capsys):
    with pytest.raises(SystemExit):
        store_main(["gc"])
