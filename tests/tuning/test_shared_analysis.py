"""The variant-invariant analyses a PipelineCache shares between builds.

Block costs, liveness, loops and scope DAGs depend on the program, not
on the technique, so one cache computes them once per program and every
Table 2 variant reuses them.  Sharing must never change a result.
"""

import gc
from collections import Counter

import pytest

from repro.experiments.config import TABLE2_VARIANTS
from repro.instrument import rewriter
from repro.instrument.marker import parse_strategy
from repro.program.cfg import cached_cfg
from repro.sim.cost_model import CostModel
from repro.sim.flattrace import flat_trace
from repro.sim.machine import core2quad_amp
from repro.sim.tracegen import AnalysisMemo
from repro.tuning.pipeline import PipelineCache, baseline_binary, run_trace
from repro.workloads.spec import spec_benchmark
from tests.conftest import make_phased_program

PROGRAMS = ("179.art", "164.gzip")

#: The stock trace (``None``) and every Table 2 technique.
VARIANTS = (None,) + TABLE2_VARIANTS


def _build_all(cache_for):
    """``{(benchmark, variant): (trace, isolated_seconds)}`` with the
    cache ``cache_for()`` returns for each build."""
    machine = core2quad_amp()
    built = {}
    for name in PROGRAMS:
        bench = spec_benchmark(name)
        for variant in VARIANTS:
            strategy = parse_strategy(variant) if variant else None
            built[name, variant] = run_trace(
                bench.program, strategy, machine, bench.spec, cache=cache_for()
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
    dropped program leaves nothing a later one could be served."""
    memo = AnalysisMemo()
    machine = core2quad_amp()
    model = memo.cost_model(machine)
    assert memo.cost_model(machine) is model
    program, _ = make_phased_program("transient")
    cfg = cached_cfg(program["main"])
    memo.loops(cfg)
    memo.scopes(cfg)
    model.block_vector(cfg.blocks[0], program)
    assert len(model._programs) == 1
    assert len(memo._loops) == 1 and len(memo._scopes) == 1
    del program, cfg
    gc.collect()
    assert len(model._programs) == 0
    assert len(memo._loops) == 0 and len(memo._scopes) == 0
