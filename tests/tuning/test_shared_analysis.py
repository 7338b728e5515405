"""The variant-invariant analyses a PipelineCache shares between builds.

Block costs and cost vectors, liveness, loops, scope DAGs and scope cost
totals depend on the program, not on the technique, so one cache
computes them once per program and every Table 2 variant reuses them;
variants that place the same marks share one tuned trace.  Sharing must
never change a result.
"""

import gc
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from repro.analysis.block_typing import BlockTyping
from repro.experiments.config import TABLE2_VARIANTS, ExperimentConfig
from repro.instrument import rewriter
from repro.instrument.marker import parse_strategy
from repro.instrument.rewriter import InstrumentedProgram
from repro.program.cfg import cached_cfg
from repro.sim.cost_model import CostModel
from repro.sim.flattrace import flat_trace
from repro.sim.machine import core2quad_amp
from repro.sim.tracegen import AnalysisMemo, TraceGenerator
from repro.tuning.pipeline import (
    PipelineCache,
    baseline_binary,
    instrument_cached,
    run_trace,
    tune_program,
    typed_blocks,
)
from repro.workloads.spec import spec_benchmark
from repro.workloads.workload import Workload, WorkloadRun
from tests.conftest import make_phased_program, make_recursive_program

PROGRAMS = ("179.art", "164.gzip")

#: No SPEC benchmark recurses, so this one puts phases in a recursive
#: call cycle, whose unrolling rounds the shared scope costs must respect.
RECURSIVE = make_recursive_program()

#: The stock trace (``None``) and every Table 2 technique.
VARIANTS = (None,) + TABLE2_VARIANTS

#: ``Trace.content_digest()`` of every benchmark and variant, recorded
#: before scope costs and traces were shared: a change that shifts the
#: shared and the fresh builds alike still fails here.
PINNED_DIGESTS = {
    "179.art": {
        None: "cb5adec358b27eb1d33096a580b3bd6b41b74116b56aa492f5ec020ffd3a9c83",
        "BB[10,0]": "9994b541088a90e27ef871306c4f8d6d30cc27410bd1d200162966eb0bfde233",
        "BB[10,1]": "18de87f125bbcfe6c3dd93ba8b8ffa2ccb10385a81fc5650e9d7f2cc299e7d93",
        "BB[10,2]": "18de87f125bbcfe6c3dd93ba8b8ffa2ccb10385a81fc5650e9d7f2cc299e7d93",
        "BB[10,3]": "18de87f125bbcfe6c3dd93ba8b8ffa2ccb10385a81fc5650e9d7f2cc299e7d93",
        "BB[15,0]": "1c063dc7445b7dbd08513857cb111d99fd876ad4e14f31a7fde8fd8677b9debb",
        "BB[15,1]": "c815165588ee0d5e0232b122ddd744119412c2e1d6e7c3d6aa121056ec9fb883",
        "BB[15,2]": "c815165588ee0d5e0232b122ddd744119412c2e1d6e7c3d6aa121056ec9fb883",
        "BB[15,3]": "c815165588ee0d5e0232b122ddd744119412c2e1d6e7c3d6aa121056ec9fb883",
        "BB[20,0]": "8624beac4b5012a4c780ff68aad4d442e5bc24fbdfed868fd27e066e11fd00b5",
        "BB[20,1]": "c719ad92aefca1ced924e55db15f1b22150074e2a0835d8a7e9856bdc32e4af3",
        "BB[20,2]": "c719ad92aefca1ced924e55db15f1b22150074e2a0835d8a7e9856bdc32e4af3",
        "BB[20,3]": "c719ad92aefca1ced924e55db15f1b22150074e2a0835d8a7e9856bdc32e4af3",
        "Int[30]": "99ba2d93e823142a387392944a2f1bd81df2a6bd94fd7ae64f9e6de2cd838b52",
        "Int[45]": "57319c2c06283956bae27e9e039e39b1ce5357cf1c0159f756e17e15bcb7578c",
        "Int[60]": "cb5adec358b27eb1d33096a580b3bd6b41b74116b56aa492f5ec020ffd3a9c83",
        "Loop[30]": "03ac4772ab29a0fb4011f2442563e51066fa4a1912308a767c441a904280b1eb",
        "Loop[45]": "03ac4772ab29a0fb4011f2442563e51066fa4a1912308a767c441a904280b1eb",
        "Loop[60]": "cb5adec358b27eb1d33096a580b3bd6b41b74116b56aa492f5ec020ffd3a9c83",
    },
    "164.gzip": {
        None: "dae9a0327586967ce538498a37c5ec1f9117a928c7cda675566da70882306cbd",
        "BB[10,0]": "4f5ace0fe6b8194d857544c6d902916dbbb72689b8237b23f5c4d7d634afed42",
        "BB[10,1]": "695b190029853d31b2ed7af8d9fee0526e96e238c8cf7dd865d54b472f1a3c97",
        "BB[10,2]": "695b190029853d31b2ed7af8d9fee0526e96e238c8cf7dd865d54b472f1a3c97",
        "BB[10,3]": "695b190029853d31b2ed7af8d9fee0526e96e238c8cf7dd865d54b472f1a3c97",
        "BB[15,0]": "c795be86887e03bce0fd36c366482cb319917af63a52a1a7a3f7027807680ac9",
        "BB[15,1]": "1f79a96a9fc6fc6ba6d5a4e18cc4a5081e75cc4a5ddb6df85753d7fda8fdf746",
        "BB[15,2]": "1f79a96a9fc6fc6ba6d5a4e18cc4a5081e75cc4a5ddb6df85753d7fda8fdf746",
        "BB[15,3]": "1f79a96a9fc6fc6ba6d5a4e18cc4a5081e75cc4a5ddb6df85753d7fda8fdf746",
        "BB[20,0]": "502decb26214e815ae81419e4b56f19846d844eae1284794441a936f07893521",
        "BB[20,1]": "245149eb249bb7687c3889283ab324f610c339a3eeb502e1f9f3ff48c4357ccb",
        "BB[20,2]": "245149eb249bb7687c3889283ab324f610c339a3eeb502e1f9f3ff48c4357ccb",
        "BB[20,3]": "245149eb249bb7687c3889283ab324f610c339a3eeb502e1f9f3ff48c4357ccb",
        "Int[30]": "287e4557b8ac042308b47a39f881d0579398e96200f37710da3a98dd5fc71b8d",
        "Int[45]": "ae20ad935a0254406e3767a72f82fe9d29c22cf860d66ba25dc6ba393481188c",
        "Int[60]": "dae9a0327586967ce538498a37c5ec1f9117a928c7cda675566da70882306cbd",
        "Loop[30]": "8d494721c803742824b2080d2806218af6c01678567dc4fbe4a270cfff068297",
        "Loop[45]": "8d494721c803742824b2080d2806218af6c01678567dc4fbe4a270cfff068297",
        "Loop[60]": "8d494721c803742824b2080d2806218af6c01678567dc4fbe4a270cfff068297",
    },
    "recursive": {
        None: "6079d5bad94288268c76f5f394d21533ed93b01c7343f3e7a9c2f49d7a59e739",
        "BB[10,0]": "0ea3318a6371c6af1c452edf01bbb22f0e3341e945cc6764c45aee7691d0dbb2",
        "BB[10,1]": "0ea3318a6371c6af1c452edf01bbb22f0e3341e945cc6764c45aee7691d0dbb2",
        "BB[10,2]": "8e8c6bc517b06914beb99caf5f0ee8f02274025063ab69722ce151b217e0c0b3",
        "BB[10,3]": "8e8c6bc517b06914beb99caf5f0ee8f02274025063ab69722ce151b217e0c0b3",
        "BB[15,0]": "0ea3318a6371c6af1c452edf01bbb22f0e3341e945cc6764c45aee7691d0dbb2",
        "BB[15,1]": "0ea3318a6371c6af1c452edf01bbb22f0e3341e945cc6764c45aee7691d0dbb2",
        "BB[15,2]": "8e8c6bc517b06914beb99caf5f0ee8f02274025063ab69722ce151b217e0c0b3",
        "BB[15,3]": "8e8c6bc517b06914beb99caf5f0ee8f02274025063ab69722ce151b217e0c0b3",
        "BB[20,0]": "0ea3318a6371c6af1c452edf01bbb22f0e3341e945cc6764c45aee7691d0dbb2",
        "BB[20,1]": "0ea3318a6371c6af1c452edf01bbb22f0e3341e945cc6764c45aee7691d0dbb2",
        "BB[20,2]": "8e8c6bc517b06914beb99caf5f0ee8f02274025063ab69722ce151b217e0c0b3",
        "BB[20,3]": "8e8c6bc517b06914beb99caf5f0ee8f02274025063ab69722ce151b217e0c0b3",
        "Int[30]": "8e8c6bc517b06914beb99caf5f0ee8f02274025063ab69722ce151b217e0c0b3",
        "Int[45]": "6079d5bad94288268c76f5f394d21533ed93b01c7343f3e7a9c2f49d7a59e739",
        "Int[60]": "6079d5bad94288268c76f5f394d21533ed93b01c7343f3e7a9c2f49d7a59e739",
        "Loop[30]": "8e8c6bc517b06914beb99caf5f0ee8f02274025063ab69722ce151b217e0c0b3",
        "Loop[45]": "6079d5bad94288268c76f5f394d21533ed93b01c7343f3e7a9c2f49d7a59e739",
        "Loop[60]": "6079d5bad94288268c76f5f394d21533ed93b01c7343f3e7a9c2f49d7a59e739",
    },
}


def _subjects():
    """``(name, program, spec)`` of every benchmark the tests build."""
    for name in PROGRAMS:
        bench = spec_benchmark(name)
        yield name, bench.program, bench.spec
    yield "recursive", *RECURSIVE


def _build_all(cache_for):
    """``{(benchmark, variant): (trace, isolated_seconds)}`` with the
    cache ``cache_for()`` returns for each build."""
    machine = core2quad_amp()
    built = {}
    for name, program, spec in _subjects():
        for variant in VARIANTS:
            strategy = parse_strategy(variant) if variant else None
            built[name, variant] = run_trace(
                program, strategy, machine, spec, cache=cache_for()
            )
    return built


def test_shared_cache_builds_equal_fresh_caches():
    shared = PipelineCache()
    together = _build_all(lambda: shared)
    apart = _build_all(PipelineCache)
    ctypes = [ct.name for ct in core2quad_amp().core_types()]
    assert together.keys() == apart.keys()
    for key, (trace, isolated) in together.items():
        fresh_trace, fresh_isolated = apart[key]
        assert isolated == fresh_isolated, key
        assert trace == fresh_trace, key
        for seg, fresh_seg in zip(trace.segments(), fresh_trace.segments()):
            for name in ctypes:
                assert seg.cost_tuple(name) == fresh_seg.cost_tuple(name), key
        flat, fresh_flat = flat_trace(trace), flat_trace(fresh_trace)
        assert flat.iters == fresh_flat.iters
        assert flat.instrs == fresh_flat.instrs
        assert flat.ovh == fresh_flat.ovh
        for name in ctypes:
            assert flat.compute[name] == fresh_flat.compute[name], key
            assert flat.stall[name] == fresh_flat.stall[name], key
            assert flat.l2[name] == fresh_flat.l2[name], key


def test_traces_match_pinned_digests():
    cache = PipelineCache()
    digests = {
        key: trace.content_digest()
        for key, (trace, _) in _build_all(lambda: cache).items()
    }
    assert digests == {
        (name, variant): digest
        for name, by_variant in PINNED_DIGESTS.items()
        for variant, digest in by_variant.items()
    }


def test_one_tuned_trace_per_mark_placement():
    cache = PipelineCache()
    machine = core2quad_amp()
    for name, program, spec in _subjects():
        by_placement: dict = {}
        for variant in TABLE2_VARIANTS:
            tuned = tune_program(
                program, parse_strategy(variant), machine, spec, cache=cache
            )
            placement = tuned.instrumented.placement()
            by_placement.setdefault(placement, []).append(tuned.tuned_trace)
        assert len(by_placement) < len(TABLE2_VARIANTS), name
        for traces in by_placement.values():
            assert all(trace is traces[0] for trace in traces), name
        distinct = [traces[0] for traces in by_placement.values()]
        assert len({id(trace) for trace in distinct}) == len(distinct), name


def test_placement_is_what_tracegen_reads():
    """Techniques with one placement differ in nothing a generator
    reads: the CFGs are the program's whatever the typing."""
    cache = PipelineCache()
    for name, program, _ in _subjects():
        for variant in TABLE2_VARIANTS:
            marked = instrument_cached(program, parse_strategy(variant), cache=cache)
            assert marked.program is program
            for proc in program:
                assert marked.aprog.cfgs[proc.name] is cached_cfg(proc), name


def test_placements_differing_only_in_phase_types_do_not_share():
    """Flipping every block's type keeps the marks on the same edges
    (as for Figure 7's injected typing errors) but changes what each
    announces, so the two tuned traces must differ."""
    machine = core2quad_amp()
    program, spec = make_phased_program("flipped")
    cache = PipelineCache()
    typing = typed_blocks(program, cache=cache)
    flipped = BlockTyping(
        {uid: typing.num_types - 1 - t for uid, t in typing.types.items()},
        typing.num_types,
    )
    strategy = parse_strategy("Loop[45]")
    stock = tune_program(program, strategy, machine, spec, cache=cache)
    swapped = tune_program(program, strategy, machine, spec, flipped, cache)
    edges, flipped_edges = (
        [(m.mark_id, m.point.trigger_edges) for m in tuned.instrumented.marks]
        for tuned in (stock, swapped)
    )
    assert edges and edges == flipped_edges
    assert swapped.tuned_trace != stock.tuned_trace
    fresh = tune_program(program, strategy, machine, spec, flipped, PipelineCache())
    assert swapped.tuned_trace == fresh.tuned_trace


def test_fairness_setup_generates_one_trace_per_placement(monkeypatch):
    """A cold Table 2 set-up at fairness scale looks up 15 benchmarks x
    18 variants of tuned traces and generates one per placement."""
    counts = Counter()
    real_generate = TraceGenerator.generate
    real_lookup = AnalysisMemo.tuned_trace

    def generate(self, target, spec=None):
        if isinstance(target, InstrumentedProgram):
            counts["generated"] += 1
        return real_generate(self, target, spec)

    def lookup(self, instrumented, machine, spec):
        counts["lookups"] += 1
        return real_lookup(self, instrumented, machine, spec)

    monkeypatch.setattr(TraceGenerator, "generate", generate)
    monkeypatch.setattr(AnalysisMemo, "tuned_trace", lookup)
    config = ExperimentConfig.fairness_paper().with_(seed=1)
    workload = Workload.random(config.slots, seed=1)
    machine = config.resolved_machine()
    cache = PipelineCache()
    WorkloadRun(workload, machine, cache=cache)
    for name in TABLE2_VARIANTS:
        WorkloadRun(workload, machine, config.strategy(name), cache=cache)
    assert counts == {"lookups": 270, "generated": 167}


def test_scope_costs_are_keyed_by_trips_and_recursion_depth():
    """Specs differing only in trip counts, default trip or recursion
    depth share a cache and still build what fresh caches build."""
    machine = core2quad_amp()
    program, spec = RECURSIVE
    untripped = replace(spec, trip_counts={("main", "outer"): 6})
    specs = [
        spec,
        replace(spec, recursion_depth=2),
        spec.with_trips(walk__cloop=90),
        untripped,
        replace(untripped, default_trip=7.0),
    ]
    shared = PipelineCache()
    for variant in (None, "BB[10,0]", "Loop[30]"):
        strategy = parse_strategy(variant) if variant else None
        traces = [
            run_trace(program, strategy, machine, s, cache=shared)[0] for s in specs
        ]
        fresh = [
            run_trace(program, strategy, machine, s, cache=PipelineCache())[0]
            for s in specs
        ]
        assert traces == fresh, variant
        assert len({trace.content_digest() for trace in traces}) == len(specs)


def test_memoized_costs_equal_recomputed_ones():
    """No build mutates a shared block vector or scope total: after
    every variant is built, each equals a private recomputation."""
    cache = PipelineCache()
    _build_all(lambda: cache)
    machine = core2quad_amp()
    (model,) = cache.analysis._cost_models.values()
    specs = {program: spec for _, program, spec in _subjects()}
    assert set(model._programs.keys()) == set(specs)
    assert set(cache.analysis._scope_costs.keys()) == set(specs)
    for program, spec in specs.items():
        blocks = {b.uid: b for proc in program for b in cached_cfg(proc).blocks}
        vectors = model._programs[program].vectors
        assert vectors and vectors.keys() <= blocks.keys()
        private = CostModel(machine)
        for uid, vector in vectors.items():
            assert vector == private.block_vector(blocks[uid], program), uid

        generator = TraceGenerator(machine)
        generator.generate(program, spec)
        (fresh,) = generator.analysis._scope_costs[program].values()
        (shared,) = cache.analysis._scope_costs[program].values()
        assert shared.keys() == fresh.keys()
        for scope, total in shared.items():
            assert total == fresh[scope], (program.name, scope)


@pytest.fixture()
def counted(monkeypatch):
    """Counters of liveness runs per CFG and of block costs computed
    (not served from the memo) per (program, block, core type)."""
    liveness = Counter()
    costs = Counter()
    real_liveness = rewriter.compute_liveness
    real_cost = CostModel._block_cost

    def count_liveness(cfg, *args, **kwargs):
        liveness[id(cfg)] += 1
        return real_liveness(cfg, *args, **kwargs)

    def count_cost(self, block, ctype, program, memo):
        if (block.uid, ctype.name) not in memo.blocks:
            costs[program.name, block.uid, ctype.name] += 1
        return real_cost(self, block, ctype, program, memo)

    monkeypatch.setattr(rewriter, "compute_liveness", count_liveness)
    monkeypatch.setattr(CostModel, "_block_cost", count_cost)
    return liveness, costs


def test_liveness_and_costs_computed_once_per_cache(counted):
    liveness, costs = counted
    cache = PipelineCache()
    _build_all(lambda: cache)
    assert liveness and set(liveness.values()) == {1}
    assert costs and set(costs.values()) == {1}
    procedures = set(liveness)
    blocks = set(costs)

    # The products are not pipeline entries: a rebuild after clear()
    # recomputes each of them once more, and so does a new cache.
    cache.clear()
    _build_all(lambda: cache)
    assert set(liveness) == procedures and set(liveness.values()) == {2}
    assert set(costs) == blocks and set(costs.values()) == {2}
    fresh = PipelineCache()
    _build_all(lambda: fresh)
    assert set(liveness.values()) == {3}
    assert set(costs.values()) == {3}


def test_shared_analyses_are_not_entries():
    cache = PipelineCache()
    machine = core2quad_amp()
    bench = spec_benchmark(PROGRAMS[0])
    for_loop45 = (bench.program, parse_strategy("Loop[45]"), machine, bench.spec)
    for_loop30 = (bench.program, parse_strategy("Loop[30]"), machine, bench.spec)
    run_trace(*for_loop45, cache=cache)
    stats = cache.stats()
    run_trace(*for_loop30, cache=cache)
    after = cache.stats()
    # Loop[30] misses its own levels only; the costs, liveness and loops
    # it reuses are neither hits nor misses.
    assert after["hits"] - stats["hits"] == 2  # typing + baseline trace
    assert after["misses"] - stats["misses"] == 4
    # Every entry is a miss's product; the analyses add none.
    assert len(cache) == after["misses"]


def test_dropped_program_costs_never_reach_a_new_program():
    """An ad-hoc program built, dropped and followed by a different one
    with the same name, procedures and block uids gets its own costs."""
    cache = PipelineCache()
    machine = core2quad_amp()
    first, spec = make_phased_program("adhoc", outer=4)
    _, first_seconds = baseline_binary(first, machine, spec, cache=cache)
    del first
    gc.collect()
    second, spec = make_phased_program(
        "adhoc", compute_iters=7, memory_iters=9, outer=4
    )
    second_trace, second_seconds = baseline_binary(second, machine, spec, cache=cache)
    fresh_trace, fresh_seconds = baseline_binary(
        second, machine, spec, cache=PipelineCache()
    )
    assert second_trace == fresh_trace
    assert second_seconds == fresh_seconds
    assert second_seconds != first_seconds


def test_dropped_program_leaves_the_memo():
    """Products are keyed weakly on the program and CFG objects, so a
    dropped program leaves nothing a later one could be served.  That
    holds for a program that went through the cached pipeline too: its
    fingerprint is memoized weakly, so the fingerprint memo does not
    keep it alive."""
    cache = PipelineCache()
    memo, scratch = cache.analysis, cache.live_scratch
    machine = core2quad_amp()
    model = memo.cost_model(machine)
    assert memo.cost_model(machine) is model
    program, spec = make_phased_program("transient")
    cfg = cached_cfg(program["main"])
    memo.loops(cfg)
    memo.scopes(cfg)
    model.block_vector(cfg.blocks[0], program)
    marked = instrument_cached(program, parse_strategy("Loop[45]"), cache=cache)
    memo.tuned_trace(marked, machine, spec)
    assert len(model._programs) == 1
    assert len(memo._loops) == 1 and len(memo._scopes) == 1
    assert len(memo._scope_costs) == 1 and len(memo._traces) == 1
    assert len(scratch) == 1
    alive = weakref.ref(program)
    # The cache's own entries hold the instrumented program strongly.
    del program, cfg, marked, cache
    gc.collect()
    assert alive() is None
    assert len(model._programs) == 0
    assert len(memo._loops) == 0 and len(memo._scopes) == 0
    assert len(memo._scope_costs) == 0 and len(memo._traces) == 0
    assert len(scratch) == 0
