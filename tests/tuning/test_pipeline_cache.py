"""Tests for the static-pipeline memoization layer."""

import pickle

import pytest

from repro.analysis import StaticBlockTyper, inject_clustering_error
from repro.errors import CacheCorruptionError
from repro.instrument import BBStrategy, LoopStrategy
from repro.sim.machine import core2quad_amp, three_core_amp
from repro.tuning.pipeline import (
    PipelineCache,
    baseline_binary,
    default_cache,
    instrument_cached,
    machine_fingerprint,
    program_fingerprint,
    run_trace,
    spec_fingerprint,
    strategy_fingerprint,
    tune_program,
    typed_blocks,
    typing_fingerprint,
)
from repro.workloads.spec import spec_suite
from tests.conftest import make_phased_program


# -- fingerprints ---------------------------------------------------------------


def test_program_fingerprint_content_keyed():
    a, _ = make_phased_program(outer=4)
    b, _ = make_phased_program(outer=4)
    c, _ = make_phased_program(outer=5)
    assert a is not b
    assert program_fingerprint(a) == program_fingerprint(b)
    assert program_fingerprint(a) != program_fingerprint(c)


def test_strategy_fingerprint_sees_parameters():
    assert strategy_fingerprint(LoopStrategy(45)) != strategy_fingerprint(
        LoopStrategy(30)
    )
    assert strategy_fingerprint(BBStrategy(15, 0)) != strategy_fingerprint(
        BBStrategy(15, 2)
    )


def test_machine_fingerprint_distinguishes_machines():
    assert machine_fingerprint(core2quad_amp()) != machine_fingerprint(
        three_core_amp()
    )


def test_spec_fingerprint_none_is_stable():
    assert spec_fingerprint(None) == spec_fingerprint(None)


#: ``(spec_fingerprint, typing_fingerprint)`` of every ``spec_suite()``
#: benchmark under the default typer.  Persisted ``--cache-dir`` refs are
#: named by these strings, so they must never change.
PINNED_FINGERPRINTS = {
    "401.bzip2": (
        "f4a7f20e472c9d1a1cc15f03f1ca49ea69cda3279653f2236167c0631d46b07c",
        "e0359df84add73995cd052ffdadd9d44476ead0d31327111e0ae8e837c59ecae",
    ),
    "410.bwaves": (
        "239792186988ce415950393d1a1422e1b1860d30cd787c944c7377acf3b88e38",
        "e12dffa5aafa18f0aec79b85df38cede040b49d56220c94b5d9a9aaa632b37fb",
    ),
    "429.mcf": (
        "e08e5f381fd15392814cdbeb17f99c557d9d41a8cac0e981c57fd166c1e73b43",
        "332bf707dcd3279bace5294d33b09ccc56ce91c37abf975e21cab0b29e25f926",
    ),
    "459.GemsFDTD": (
        "5e6b9ddf4190bd9558e29bc4cd8d56654332aadae5ac7524cecfdc95f89b30ab",
        "872967f86b29917cd723ed1cabfea3eb20cd95ac32d0a2d04abd2e6fc9054416",
    ),
    "470.lbm": (
        "10b49da0ce9fe63e8cbbc6f04d0638824c15766c9807c5bd5096429c86a9ff7d",
        "e12dffa5aafa18f0aec79b85df38cede040b49d56220c94b5d9a9aaa632b37fb",
    ),
    "473.astar": (
        "565eba40c2123a89430ecd4a243941f645b6ddfd9d1016069849d972a1259052",
        "7e445c42509d4c08ebec72ed23f1b4a43227a19480bc3bd9882fd8605b755eee",
    ),
    "188.ammp": (
        "f9f0d951e6d97d2ce7fd46d617515d35efcb0c8fab0c34f00abe61cfe3ce1450",
        "059cd2cc187a6c261eeb745451ae4c4ca0b148cbeaf5f3bbfb4009b2915e0cf5",
    ),
    "173.applu": (
        "503d4c693b046567ec40fdb475f8558c3a62fc418fca49a37d97d05d1ec1e01a",
        "e12dffa5aafa18f0aec79b85df38cede040b49d56220c94b5d9a9aaa632b37fb",
    ),
    "179.art": (
        "9b1e8721e06b6726c580fd20cb4b05f260bda2ea02dd321cc9a05579c725c1de",
        "9c1269205d5186550bb58e86741e29b1079cf0c5e9a31d1890a003a44d716e96",
    ),
    "183.equake": (
        "58f9ca0415aea1efeb72d931bb61fda188c38551d636e7821939c158826f7ee4",
        "ee050e041a588562259648a78cce321b72ff7d601b45ca29231ad69e9d4e19a1",
    ),
    "164.gzip": (
        "670bff21f3f12c02b86fd594b9420d5449217bc9c6c866cd1c02b390852c0e9e",
        "9c9a0bbb07968738f388ca2847fc8b5cd656ccccfccd6ef514be2c0f6a6e48c3",
    ),
    "181.mcf": (
        "b64cf0248f383ff91d52d257cdeed593f6ef12a8c0cc655baebc890d2a4e9b81",
        "332bf707dcd3279bace5294d33b09ccc56ce91c37abf975e21cab0b29e25f926",
    ),
    "172.mgrid": (
        "fe000e565475769a8084551f0432cabacb1fe7c70b24658cb3b64a181f15db77",
        "ee050e041a588562259648a78cce321b72ff7d601b45ca29231ad69e9d4e19a1",
    ),
    "171.swim": (
        "2ce2ccd98174a60f263a237c2211c552b778934239f237e3145a072c1afe651e",
        "332bf707dcd3279bace5294d33b09ccc56ce91c37abf975e21cab0b29e25f926",
    ),
    "175.vpr": (
        "53e848241406b2878512c71febc5b5322e2fe01f5b3d3207b9b173fdbeaa5e7c",
        "9c9a0bbb07968738f388ca2847fc8b5cd656ccccfccd6ef514be2c0f6a6e48c3",
    ),
}


def test_spec_and_typing_fingerprints_are_pinned():
    cache = PipelineCache()
    got = {
        bench.name: (
            spec_fingerprint(bench.spec),
            typing_fingerprint(typed_blocks(bench.program, cache=cache)),
        )
        for bench in spec_suite()
    }
    assert got == PINNED_FINGERPRINTS
    assert spec_fingerprint(None) == "default-spec"
    assert typing_fingerprint(None) == "default-typing"


# -- cache behaviour ------------------------------------------------------------


def test_tune_program_hits_cache_on_repeat():
    program, spec = make_phased_program(outer=4)
    machine = core2quad_amp()
    cache = PipelineCache()
    first = tune_program(program, LoopStrategy(20), machine, spec, cache=cache)
    misses = cache.misses
    assert cache.hits == 0
    second = tune_program(program, LoopStrategy(20), machine, spec, cache=cache)
    assert second is first
    assert cache.misses == misses
    assert cache.hits == 1


def test_equivalent_programs_share_entries():
    a, spec = make_phased_program(outer=4)
    b, _ = make_phased_program(outer=4)
    cache = PipelineCache()
    tuned_a = tune_program(a, LoopStrategy(20), spec=spec, cache=cache)
    tuned_b = tune_program(b, LoopStrategy(20), spec=spec, cache=cache)
    assert tuned_b is tuned_a
    assert cache.hits == 1


def test_runtime_parameters_do_not_miss():
    # Sweeping delta (a runtime knob) must not grow the static cache.
    program, spec = make_phased_program(outer=4)
    cache = PipelineCache()
    tune_program(program, LoopStrategy(20), spec=spec, cache=cache)
    entries = len(cache)
    for _ in range(5):
        tune_program(program, LoopStrategy(20), spec=spec, cache=cache)
    assert len(cache) == entries


def test_distinct_strategies_get_distinct_entries():
    program, spec = make_phased_program(outer=4)
    cache = PipelineCache()
    a = tune_program(program, LoopStrategy(20), spec=spec, cache=cache)
    b = tune_program(program, BBStrategy(10, 1), spec=spec, cache=cache)
    assert a is not b
    assert a.instrumented.strategy_name != b.instrumented.strategy_name


def test_typing_override_is_part_of_key():
    program, spec = make_phased_program(outer=4)
    typing = StaticBlockTyper().type_blocks(program)
    flipped = inject_clustering_error(typing, 1.0)
    cache = PipelineCache()
    plain = tune_program(program, LoopStrategy(20), spec=spec, cache=cache)
    overridden = tune_program(
        program, LoopStrategy(20), spec=spec, typing=flipped, cache=cache
    )
    assert plain is not overridden


def test_baseline_binary_shared_between_levels():
    # tune_program's build reuses the cached baseline trace.
    program, spec = make_phased_program(outer=4)
    machine = core2quad_amp()
    cache = PipelineCache()
    trace, isolated = baseline_binary(program, machine, spec, cache=cache)
    tuned = tune_program(program, LoopStrategy(20), machine, spec, cache=cache)
    assert tuned.baseline_trace is trace
    assert tuned.isolated_seconds == isolated
    assert cache.hits >= 1


def test_cached_equals_fresh():
    program, spec = make_phased_program(outer=4)
    machine = core2quad_amp()
    warm = PipelineCache()
    tune_program(program, LoopStrategy(20), machine, spec, cache=warm)
    from_warm = tune_program(program, LoopStrategy(20), machine, spec, cache=warm)
    from_cold = tune_program(
        program, LoopStrategy(20), machine, spec, cache=PipelineCache()
    )
    assert from_warm.isolated_seconds == from_cold.isolated_seconds
    assert from_warm.mark_count == from_cold.mark_count
    assert [n for n in from_warm.tuned_trace.nodes] is not None
    assert from_warm.tuned_trace.total_instrs() == pytest.approx(
        from_cold.tuned_trace.total_instrs()
    )


def test_typed_blocks_cached():
    program, _ = make_phased_program(outer=4)
    cache = PipelineCache()
    first = typed_blocks(program, cache=cache)
    second = typed_blocks(program, cache=cache)
    assert second is first
    assert cache.stats()["hits"] == 1


def test_instrument_cached_reuses_typing_level():
    program, _ = make_phased_program(outer=4)
    cache = PipelineCache()
    typed_blocks(program, cache=cache)
    instrument_cached(program, LoopStrategy(20), cache=cache)
    # The instrumented build found the typing already cached.
    assert cache.hits >= 1


def test_stats_and_clear():
    program, spec = make_phased_program(outer=4)
    cache = PipelineCache()
    tune_program(program, LoopStrategy(20), spec=spec, cache=cache)
    tune_program(program, LoopStrategy(20), spec=spec, cache=cache)
    stats = cache.stats()
    assert stats["entries"] == len(cache) > 0
    assert stats["hits"] == 1
    assert 0.0 < stats["hit_rate"] < 1.0
    cache.reset_stats()
    assert cache.stats()["hits"] == 0
    assert len(cache) > 0
    cache.clear()
    assert len(cache) == 0


def test_default_cache_is_process_wide():
    assert default_cache() is default_cache()


# -- corruption detection ---------------------------------------------------


def _tamper_first_entry(cache):
    key, (value, digest) = next(iter(cache._entries.items()))
    cache._entries[key] = (value, "0" * len(digest))
    return key


def test_corrupt_entry_is_evicted_and_rebuilt():
    program, _ = make_phased_program(outer=4)
    cache = PipelineCache()
    first = typed_blocks(program, cache=cache)
    _tamper_first_entry(cache)
    rebuilt = typed_blocks(program, cache=cache)
    assert rebuilt is not first
    assert rebuilt == first
    assert cache.stats()["corruptions"] == 1
    # The rebuilt entry carries a fresh, valid digest: next call hits.
    assert typed_blocks(program, cache=cache) is rebuilt
    assert cache.stats()["corruptions"] == 1


def test_strict_cache_raises_on_corruption():
    program, _ = make_phased_program(outer=4)
    cache = PipelineCache(strict=True)
    typed_blocks(program, cache=cache)
    _tamper_first_entry(cache)
    with pytest.raises(CacheCorruptionError, match="integrity"):
        typed_blocks(program, cache=cache)
    assert cache.corruptions == 1


def test_check_integrity_sweeps_all_entries():
    program, spec = make_phased_program(outer=4)
    cache = PipelineCache()
    tune_program(program, LoopStrategy(20), spec=spec, cache=cache)
    assert cache.check_integrity() == 0
    before = len(cache)
    _tamper_first_entry(cache)
    assert cache.check_integrity() == 1
    assert len(cache) == before - 1
    assert cache.stats()["corruptions"] == 1


def test_clear_resets_corruption_count():
    program, _ = make_phased_program(outer=4)
    cache = PipelineCache()
    typed_blocks(program, cache=cache)
    _tamper_first_entry(cache)
    typed_blocks(program, cache=cache)
    assert cache.corruptions == 1
    cache.clear()
    assert cache.corruptions == 0


# -- disk tier --------------------------------------------------------------


def _warm_disk(tmp_path):
    """Build one tuned binary with a disk-backed cache; return the lot."""
    program, spec = make_phased_program(outer=4)
    cache = PipelineCache(disk_dir=tmp_path)
    tuned = tune_program(program, LoopStrategy(20), spec=spec, cache=cache)
    return program, spec, cache, tuned


def test_disk_roundtrip_serves_fresh_cache(tmp_path):
    """A brand-new cache over the same directory rebuilds nothing."""
    program, spec, warm, tuned = _warm_disk(tmp_path)
    assert warm.misses > 0
    assert warm.disk_hits == 0
    # The disk tier is a CAS: one ref (and one object) per top-level
    # product, none for the levels its build looked up on the way.
    assert len(warm) > 1
    assert len(warm.store.refs("pipeline")) == 1
    assert len(warm.store.objects()) == 1
    cold = PipelineCache(disk_dir=tmp_path)
    again = tune_program(program, LoopStrategy(20), spec=spec, cache=cold)
    assert cold.misses == 0
    assert cold.disk_hits == 1  # the nested keys were never looked up
    stats = cold.stats()
    assert stats["hit_rate"] == 1.0
    assert stats["disk_hits"] == cold.disk_hits
    assert again.isolated_seconds == tuned.isolated_seconds
    assert again.mark_count == tuned.mark_count


def test_set_disk_dir_creates_directory(tmp_path):
    target = tmp_path / "nested" / "cache"
    cache = PipelineCache(disk_dir=target)
    assert target.is_dir()
    assert cache.disk_dir == target


def _smash_tuned_entries(tmp_path):
    """Overwrite the object bytes behind every tuned-level ref."""
    from repro.store import LocalStore

    store = LocalStore(tmp_path)
    smashed = {
        name: digest
        for name, digest in store.refs("pipeline").items()
        if name.startswith("pipeline/tuned-")
    }
    assert smashed, "expected a persisted tuned-level entry"
    for digest in smashed.values():
        store._object_path(digest).write_bytes(b"not a pickle")
    return smashed


def test_corrupt_disk_file_is_evicted_and_rebuilt(tmp_path):
    program, spec, _, tuned = _warm_disk(tmp_path)
    smashed = _smash_tuned_entries(tmp_path)
    cold = PipelineCache(disk_dir=tmp_path)
    rebuilt = tune_program(program, LoopStrategy(20), spec=spec, cache=cold)
    assert cold.corruptions == len(smashed) == 1
    # Its nested levels were never persisted, so the rebuild is full.
    assert cold.misses == len(cold) > 1
    assert rebuilt.mark_count == tuned.mark_count
    # The damaged object was quarantined, not deleted in place.
    assert list((tmp_path / "quarantine").iterdir())
    # The rebuild re-persisted a valid entry: the next process hits clean.
    fresh = PipelineCache(disk_dir=tmp_path)
    tune_program(program, LoopStrategy(20), spec=spec, cache=fresh)
    assert fresh.misses == 0
    assert fresh.corruptions == 0


def test_strict_cache_raises_on_disk_corruption(tmp_path):
    program, spec, _, _ = _warm_disk(tmp_path)
    _smash_tuned_entries(tmp_path)
    strict = PipelineCache(strict=True, disk_dir=tmp_path)
    with pytest.raises(CacheCorruptionError, match="integrity"):
        tune_program(program, LoopStrategy(20), spec=spec, cache=strict)


def test_foreign_disk_file_rejected(tmp_path):
    """A well-formed object whose stored key differs from the lookup key
    (e.g. a ref copied between cache directories) is treated as corrupt."""
    import pickle

    from repro.tuning.pipeline import _key_digest

    program, spec, warm, _ = _warm_disk(tmp_path)
    key = next(k for k in warm._entries if k[0] == "tuned")
    value = warm._entries[key][0]
    forged = pickle.dumps((("forged",), value, _key_digest(key)))
    digest = warm.store.put(forged)
    warm.store.set_ref(warm._ref_name(key), digest)
    cold = PipelineCache(disk_dir=tmp_path)
    tune_program(program, LoopStrategy(20), spec=spec, cache=cold)
    assert cold.corruptions == 1
    # The forged ref was the only persisted level: a full rebuild.
    assert cold.misses == len(cold) == len(warm)


def _ref_levels(store):
    return sorted(
        name[len("pipeline/"):].rsplit("-", 1)[0]
        for name in store.refs("pipeline")
    )


def test_only_the_outermost_product_is_persisted(tmp_path):
    """The levels a tuned build looks up on the way stay in memory."""
    program, spec, warm, _ = _warm_disk(tmp_path)
    assert sorted(k[0] for k in warm._entries) == [
        "baseline-trace", "instrumented", "transitions", "tuned", "typing",
    ]
    assert _ref_levels(warm.store) == ["tuned"]


def test_top_level_hit_publishes_an_entry_built_nested(tmp_path):
    """The stock path asks for the baseline trace ``tune_program``
    already built nested: that top-level hit publishes it, so a fresh
    process serves both calls from disk."""
    program, spec = make_phased_program(outer=4)
    machine = core2quad_amp()
    warm = PipelineCache(disk_dir=tmp_path)
    tune_program(program, LoopStrategy(20), machine, spec, cache=warm)
    baseline_binary(program, machine, spec, cache=warm)
    assert _ref_levels(warm.store) == ["baseline-trace", "tuned"]
    fresh = PipelineCache(disk_dir=tmp_path)
    tune_program(program, LoopStrategy(20), machine, spec, cache=fresh)
    baseline_binary(program, machine, spec, cache=fresh)
    assert fresh.misses == 0
    assert fresh.disk_hits == 2


def test_rerun_does_not_thrash_a_cap_below_all_levels(tmp_path):
    """Six strategies make 20 pipeline entries but only 6 top-level
    products; a cap between the two holds the products, so a rerun in
    a fresh process rebuilds and evicts nothing."""
    program, spec = make_phased_program(outer=4)
    strategies = [
        LoopStrategy(10), LoopStrategy(20), LoopStrategy(45),
        BBStrategy(10, 1), BBStrategy(15, 0), BBStrategy(15, 2),
    ]
    first = PipelineCache(disk_dir=tmp_path, max_disk_entries=8)
    for strategy in strategies:
        tune_program(program, strategy, spec=spec, cache=first)
    assert len(first) > first.max_disk_entries >= len(strategies)
    assert first.evicted_entries == 0
    rerun = PipelineCache(disk_dir=tmp_path, max_disk_entries=8)
    for strategy in strategies:
        tune_program(program, strategy, spec=spec, cache=rerun)
    assert rerun.misses == 0
    assert rerun.disk_hits == len(strategies)
    assert rerun.evicted_entries == 0


def test_installed_entries_are_not_republished(tmp_path, monkeypatch):
    """A worker warmed by ``install_entries`` writes nothing for entries
    the tier already holds, and publishes a missing one exactly once."""
    from repro.store import LocalStore

    program, spec = make_phased_program(outer=4)
    machine = core2quad_amp()
    warm = PipelineCache(disk_dir=tmp_path)
    tune_program(program, LoopStrategy(20), machine, spec, cache=warm)
    store = warm.store
    before = (sorted(store.refs("pipeline")), sorted(store.objects()))
    assert len(before[0]) == len(before[1]) == 1

    puts = []
    original = LocalStore.put

    def counted(self, data, digest=None):
        puts.append(len(data))
        return original(self, data, digest)

    monkeypatch.setattr(LocalStore, "put", counted)
    worker = PipelineCache(disk_dir=tmp_path)
    assert worker.install_entries(warm.export_entries()) == len(warm)
    for _ in range(3):
        tune_program(program, LoopStrategy(20), machine, spec, cache=worker)
    assert (worker.hits, worker.misses) == (3, 0)
    assert puts == []
    assert (sorted(store.refs("pipeline")), sorted(store.objects())) == before
    # The installed baseline trace is not on the tier: its first
    # top-level hit publishes it, later hits do not.
    for _ in range(2):
        baseline_binary(program, machine, spec, cache=worker)
    assert len(puts) == 1
    assert _ref_levels(store) == ["baseline-trace", "tuned"]


def test_legacy_disk_layout_migrated(tmp_path):
    """Flat ``{level}-{digest}.pkl`` files from the pre-store layout are
    republished into the CAS on attach and served without a rebuild."""
    import pickle

    from repro.tuning.pipeline import _key_digest

    program, spec = make_phased_program(outer=4)
    warm = PipelineCache()
    tune_program(program, LoopStrategy(20), spec=spec, cache=warm)
    for key, (value, digest) in warm._entries.items():
        blob = pickle.dumps((key, value, digest))
        (tmp_path / f"{key[0]}-{_key_digest(key)}.pkl").write_bytes(blob)
    (tmp_path / "garbage-feedface.pkl").write_bytes(b"not a cache entry")
    cold = PipelineCache(disk_dir=tmp_path)
    assert len(cold.store.refs("pipeline")) == len(warm)
    tune_program(program, LoopStrategy(20), spec=spec, cache=cold)
    assert cold.misses == 0
    assert cold.disk_hits > 0
    # Migrated files are gone; the unverifiable impostor is left alone.
    assert sorted(p.name for p in tmp_path.glob("*.pkl")) == [
        "garbage-feedface.pkl"
    ]


def test_disk_eviction_respects_cap(tmp_path):
    from repro.store import LocalStore

    program, spec = make_phased_program(outer=4)
    cache = PipelineCache(disk_dir=tmp_path, max_disk_entries=2)
    strategies = [LoopStrategy(20), LoopStrategy(30), BBStrategy(10, 1)]
    for strategy in strategies:
        tune_program(program, strategy, spec=spec, cache=cache)
    store = LocalStore(tmp_path)
    # Three top-level products published into a cap of two.
    assert len(store.refs("pipeline")) == 2
    assert len(store.objects()) == 2  # evicted objects are collected too
    assert cache.evicted_entries == len(strategies) - 2
    assert cache.stats()["evicted_bytes"] > 0


def test_disk_eviction_respects_byte_budget(tmp_path):
    """With a byte budget the tier evicts by size, not entry count."""
    program, spec = make_phased_program(outer=4)
    strategies = [LoopStrategy(20), LoopStrategy(30), BBStrategy(10, 1)]
    probe = PipelineCache(disk_dir=tmp_path / "probe")
    for strategy in strategies:
        tune_program(program, strategy, spec=spec, cache=probe)
    total = probe.store.size_bytes()
    largest = max(probe.store.object_size(d) for d in probe.store.objects())
    budget = total - 1  # force at least one eviction, keep most entries

    cache = PipelineCache(
        disk_dir=tmp_path / "capped",
        max_disk_entries=None,
        max_disk_bytes=budget,
    )
    for strategy in strategies:
        tune_program(program, strategy, spec=spec, cache=cache)
    assert 1 <= cache.evicted_entries < len(strategies)
    assert cache.evicted_bytes >= 1
    assert cache.store.size_bytes() <= budget
    assert cache.stats()["evicted_bytes"] == cache.evicted_bytes
    # Sanity: the budget was binding on bytes, not on a count cap.
    assert largest <= total


def test_disk_write_failure_never_fails_the_build(tmp_path):
    import os

    if os.geteuid() == 0:
        pytest.skip("directory permissions are not enforced for root")
    target = tmp_path / "readonly"
    target.mkdir()
    program, spec = make_phased_program(outer=4)
    cache = PipelineCache(disk_dir=target)
    target.chmod(0o500)
    try:
        tuned = tune_program(program, LoopStrategy(20), spec=spec, cache=cache)
    finally:
        target.chmod(0o700)
    assert tuned.mark_count >= 0
    assert len(cache) > 0


# -- entry shipping (spawn-started workers) ---------------------------------


def test_export_install_roundtrip():
    program, spec = make_phased_program(outer=4)
    warm = PipelineCache()
    tuned = tune_program(program, LoopStrategy(20), spec=spec, cache=warm)
    fresh = PipelineCache()
    assert fresh.install_entries(warm.export_entries()) == len(warm)
    again = tune_program(program, LoopStrategy(20), spec=spec, cache=fresh)
    assert fresh.misses == 0
    # The blob round-trips through pickle, so the served entry is an
    # equal copy of the original, not the same object.
    assert again.isolated_seconds == tuned.isolated_seconds
    assert again.mark_count == tuned.mark_count


def test_install_drops_damaged_entries():
    program, spec = make_phased_program(outer=4)
    warm = PipelineCache()
    tune_program(program, LoopStrategy(20), spec=spec, cache=warm)
    _tamper_first_entry(warm)
    blob = warm.export_entries()
    fresh = PipelineCache()
    assert fresh.install_entries(blob) == len(warm) - 1
    assert fresh.corruptions == 1
    strict = PipelineCache(strict=True)
    with pytest.raises(CacheCorruptionError, match="integrity"):
        strict.install_entries(blob)


def test_disk_eviction_deterministic_under_equal_mtimes(tmp_path):
    """Coarse filesystem timestamps produce same-mtime batches; eviction
    must tie-break by ref name so every process drops the same subset."""
    import os

    cache = PipelineCache(disk_dir=tmp_path, max_disk_entries=2)
    store = cache.store
    for name in ["d", "b", "c", "a", "e"]:
        digest = store.put(f"entry-{name}".encode())
        ref = f"pipeline/{name}"
        store.set_ref(ref, digest)
        os.utime(store._ref_path(ref), (1_000_000_000, 1_000_000_000))
    cache._evict_disk_overflow()
    # Oldest-first with name tie-break: a, b, c evicted; d, e survive.
    assert sorted(store.refs("pipeline")) == ["pipeline/d", "pipeline/e"]
    assert len(store.objects()) == 2
    assert cache.evicted_entries == 3


def _assert_refs_verify(store):
    """Every surviving pipeline ref names a present, digest-verified
    object (``LocalStore.get`` re-hashes before returning)."""
    for name, digest in store.refs("pipeline").items():
        assert store.get(digest) is not None, name


def test_disk_eviction_amortized_below_cap(tmp_path, monkeypatch):
    """Eviction runs to a low-water mark, so the stat pass that orders
    the refs is paid once per ``cap // 8`` publishes, not per publish."""
    from repro.store import LocalStore

    scans = []
    original = LocalStore.ref_mtimes

    def counted(self, prefix=""):
        scans.append(prefix)
        return original(self, prefix)

    monkeypatch.setattr(LocalStore, "ref_mtimes", counted)
    cache = PipelineCache(disk_dir=tmp_path, max_disk_entries=64)
    for i in range(192):
        cache.get_or_build(("typing", f"entry-{i}"), lambda: i)
        assert cache.store.count_refs("pipeline") <= 64
    assert 0 < len(scans) <= 192 // 8
    survivors = len(cache.store.refs("pipeline"))
    assert cache.evicted_entries == 192 - survivors
    _assert_refs_verify(cache.store)


def _publish_into_shared_tier(root, tag, barrier, evicted):
    cache = PipelineCache(disk_dir=root, max_disk_entries=32)
    barrier.wait(timeout=30)
    for i in range(100):
        cache.get_or_build(("typing", f"{tag}-{i}"), lambda: (tag, i))
    evicted.put(cache.evicted_entries)


def test_two_processes_share_one_tier(tmp_path):
    """Two processes evicting one directory keep it under the cap and
    never both count the same victim."""
    import multiprocessing

    from repro.store import LocalStore

    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(2)
    evicted = ctx.Queue()
    procs = [
        ctx.Process(
            target=_publish_into_shared_tier,
            args=(str(tmp_path), tag, barrier, evicted),
        )
        for tag in ("left", "right")
    ]
    for proc in procs:
        proc.start()
    counts = [evicted.get(timeout=60) for _ in procs]
    for proc in procs:
        proc.join(timeout=30)
    assert all(proc.exitcode == 0 for proc in procs)
    store = LocalStore(tmp_path)
    survivors = len(store.refs("pipeline"))
    assert survivors <= 32
    assert sum(counts) == 200 - survivors
    _assert_refs_verify(store)


# -- the per-job product --------------------------------------------------------

_JOB_MIX = ("164.gzip", "429.mcf")


def _job_workload():
    from repro.workloads import Workload

    return Workload.random(2, seed=3, queue_length=4, benchmarks=_JOB_MIX)


def test_run_trace_is_tune_programs_trace_or_the_baseline():
    program, spec = make_phased_program(outer=4)
    machine = core2quad_amp()
    flipped = inject_clustering_error(
        StaticBlockTyper().type_blocks(program), 1.0
    )
    for typing in (None, flipped):
        trace, isolated = run_trace(
            program, LoopStrategy(20), machine, spec, typing,
            cache=PipelineCache(),
        )
        tuned = tune_program(
            program, LoopStrategy(20), machine, spec, typing,
            cache=PipelineCache(),
        )
        assert trace == tuned.tuned_trace
        assert pickle.dumps(trace) == pickle.dumps(tuned.tuned_trace)
        assert isolated == tuned.isolated_seconds
    cache = PipelineCache()
    plain = run_trace(program, LoopStrategy(20), machine, spec, cache=cache)
    overridden = run_trace(
        program, LoopStrategy(20), machine, spec, flipped, cache=cache
    )
    assert plain[0] != overridden[0]
    # A stock run is the baseline entry itself.
    cache = PipelineCache()
    stock = run_trace(program, None, machine, spec, cache=cache)
    assert stock is baseline_binary(program, machine, spec, cache=cache)
    assert sorted(k[0] for k in cache._entries) == ["baseline-trace"]


def test_tuned_workload_persists_only_run_traces(tmp_path):
    """A tuned workload persists one ``run-trace`` per benchmark and no
    ``tuned`` binary; a stock workload after it adds the baseline
    traces; a fresh process then rebuilds neither run."""
    from repro.workloads import WorkloadRun

    machine = core2quad_amp()
    workload = _job_workload()
    names = sorted(workload.benchmark_names())
    warm = PipelineCache(disk_dir=tmp_path)
    WorkloadRun(workload, machine, LoopStrategy(45), cache=warm)
    assert _ref_levels(warm.store) == ["run-trace"] * len(names)
    WorkloadRun(workload, machine, cache=warm)
    assert _ref_levels(warm.store) == (
        ["baseline-trace"] * len(names) + ["run-trace"] * len(names)
    )
    fresh = PipelineCache(disk_dir=tmp_path)
    tuned = WorkloadRun(workload, machine, LoopStrategy(45), cache=fresh)
    stock = WorkloadRun(workload, machine, cache=fresh)
    assert fresh.misses == 0
    assert fresh.disk_hits == 2 * len(names)
    for name in names:
        assert tuned.isolated_seconds(name) == stock.isolated_seconds(name)


class _TypeProbe(pickle.Pickler):
    """Pickles to nowhere, recording the type of every object reached."""

    def __init__(self):
        import io

        super().__init__(io.BytesIO())
        self.seen = set()

    def persistent_id(self, obj):
        self.seen.add(type(obj))
        return None


def test_run_trace_entry_carries_no_program(tmp_path):
    from repro.analysis.annotate import AttributedProgram
    from repro.analysis.block_typing import BlockTyping
    from repro.instrument.rewriter import InstrumentedProgram
    from repro.program.module import Program
    from repro.sim.process import Trace
    from repro.tuning.pipeline import TunedBinary
    from repro.workloads import WorkloadRun

    cache = PipelineCache(disk_dir=tmp_path)
    WorkloadRun(_job_workload(), core2quad_amp(), LoopStrategy(45), cache=cache)
    refs = cache.store.refs("pipeline")
    assert refs
    for digest in refs.values():
        key, value, _ = pickle.loads(cache.store.get(digest))
        assert key[0] == "run-trace"
        trace, isolated = value
        assert type(value) is tuple and len(value) == 2
        assert isinstance(trace, Trace) and type(isolated) is float
        probe = _TypeProbe()
        probe.dump(value)
        assert Trace in probe.seen
        assert not probe.seen & {
            Program, InstrumentedProgram, AttributedProgram, BlockTyping,
            TunedBinary,
        }


def test_tuned_open_system_reruns_from_disk(tmp_path):
    from repro.sim.opensys import OpenSystemPlan, OpenSystemRun

    machine = core2quad_amp()
    plan = OpenSystemPlan(seed=5, rate=0.5, horizon=20.0, classes=_JOB_MIX)
    warm = PipelineCache(disk_dir=tmp_path)
    first = OpenSystemRun(plan, machine, LoopStrategy(45), cache=warm)
    assert warm.misses > 0
    assert _ref_levels(warm.store) == ["run-trace"] * len(_JOB_MIX)
    fresh = PipelineCache(disk_dir=tmp_path)
    again = OpenSystemRun(plan, machine, LoopStrategy(45), cache=fresh)
    assert fresh.misses == 0
    assert fresh.disk_hits == len(_JOB_MIX)
    assert again.mean_isolated_seconds() == first.mean_isolated_seconds()
