"""Golden-equality tests for the segment-batched executor.

``Simulation(batched=True)`` (the default) runs quanta through the flat
trace arrays and the batched quantum loop; ``batched=False`` forces the
stepped tree-walking reference path.  The two must agree *exactly* —
same completion times, same per-process stats, same throughput buckets,
same idle accounting — because the batched loop replays the reference
float arithmetic op for op.
"""

import pytest

from repro.experiments.config import TABLE2_VARIANTS, ExperimentConfig
from repro.instrument import BBStrategy, LoopStrategy, instrument
from repro.instrument.phase_mark import MARK_FIRE_CYCLES
from repro.sim import SimProcess, Simulation, TraceGenerator
from repro.sim.cost_model import CostVector
from repro.sim.faults import (
    DvfsEvent,
    FaultPlan,
    HotplugEvent,
    MemoryPressureEvent,
)
from repro.sim.flattrace import (
    FLATTEN_LIMIT,
    FlatCursor,
    flat_trace,
    make_cursor,
    step_row,
)
from repro.sim.process import (
    EmbeddedMark,
    MarkRef,
    Repeat,
    Segment,
    Trace,
    TraceCursor,
)
from repro.sim.tracegen import _marked
from repro.tuning import PhaseTuningRuntime
from repro.tuning.pipeline import PipelineCache, run_trace
from repro.workloads.spec import spec_benchmark
from repro.workloads.workload import Workload
from tests.conftest import make_phased_program


def _summary(result):
    """Everything a SimulationResult reports, as comparable plain data."""
    return {
        "time": result.time,
        "completed": [
            (
                p.pid,
                p.name,
                p.completion,
                p.stats.instructions,
                dict(p.stats.cycles_by_type),
                p.stats.switches,
                p.stats.migrations,
                p.stats.mark_firings,
                p.stats.mark_overhead_cycles,
                p.stats.cpu_time,
            )
            for p in result.completed
        ],
        "buckets": dict(result.throughput_buckets),
        "idle": dict(result.idle_time_by_core),
    }


#: A long input: each process runs for tens of simulated seconds
#: (hundreds of quanta), so long mark-free stretches and mid-run faults
#: land while work is in flight.
LONG_RUN = dict(
    procs=5,
    until=60.0,
    program=dict(compute_iters=5_000_000, memory_iters=5_000_000, outer=30),
)


def _run(
    machine,
    batched,
    strategy=None,
    delta=0.12,
    faults=None,
    procs=3,
    until=1000.0,
    program=None,
):
    """One multi-process run; everything rebuilt fresh per call."""
    program, spec = make_phased_program(**(program or dict(outer=6)))
    generator = TraceGenerator(machine)
    if strategy is not None:
        source = instrument(program, strategy)
        runtime = PhaseTuningRuntime(machine, delta)
    else:
        source = program
        runtime = None
    sim = Simulation(machine, runtime=runtime, faults=faults, batched=batched)
    for pid in range(procs):
        proc = SimProcess(
            pid,
            f"p{pid}",
            generator.generate(source, spec),
            machine.all_cores_mask,
            isolated_time=1.0,
        )
        sim.add_process(proc, 0.0)
    return _summary(sim.run(until))


def test_batched_matches_stepped_baseline(machine):
    """Runtime-less multiprogrammed run: identical down to the float."""
    assert _run(machine, True) == _run(machine, False)


def test_batched_matches_stepped_under_runtime(machine):
    assert _run(machine, True, strategy=LoopStrategy(20)) == _run(
        machine, False, strategy=LoopStrategy(20)
    )


def test_batched_matches_stepped_bb_strategy(machine):
    assert _run(machine, True, strategy=BBStrategy(15, 0), delta=0.08) == _run(
        machine, False, strategy=BBStrategy(15, 0), delta=0.08
    )


def test_batched_matches_stepped_with_faults(machine):
    """A nonzero fault plan (hotplug + DVFS + counter/IPC noise) hits the
    executor's fault hooks; both paths must still agree exactly."""
    # Place the machine events inside the run: probe its length first.
    span = _run(machine, False, strategy=LoopStrategy(20))["time"]
    plan = FaultPlan(
        seed=7,
        counter_fail_rate=0.05,
        counter_corrupt_rate=0.02,
        affinity_fail_rate=0.05,
        ipc_noise=0.01,
        hotplug=(
            HotplugEvent(time=span * 0.3, core_id=1, online=False),
            HotplugEvent(time=span * 0.7, core_id=1, online=True),
        ),
        dvfs=(DvfsEvent(time=span * 0.5, core_id=0, scale=0.8),),
    )
    faulted = _run(machine, True, strategy=LoopStrategy(20), faults=plan)
    assert faulted == _run(machine, False, strategy=LoopStrategy(20), faults=plan)
    # The plan really perturbed the run (otherwise this test is vacuous).
    assert faulted != _run(machine, True, strategy=LoopStrategy(20))


# -- flat trace / cursor parity -------------------------------------------------


def _zero_segment(machine, uid, iters):
    vector = CostVector.zero(machine.core_types())
    vector.instrs = 100.0
    for name in vector.compute:
        vector.compute[name] = 1e4
    return Segment(uid, None, iters, vector)


def _nested_trace(machine):
    a = _zero_segment(machine, "a", 2.0)
    b = _zero_segment(machine, "b", 3.0)
    c = _zero_segment(machine, "c", 1.0)
    return Trace((a, Repeat((b, Repeat((c,), 2)), 3), a))


def test_flat_cursor_walks_in_tree_order(machine):
    """FlatCursor and TraceCursor agree step by step under identical
    consume sequences, including partial consumes."""
    trace = _nested_trace(machine)
    flat = make_cursor(trace)
    tree = TraceCursor(trace)
    assert isinstance(flat, FlatCursor)
    while not tree.finished:
        assert not flat.finished
        assert flat.current is tree.current
        assert flat.remaining_iterations == tree.remaining_iterations
        assert flat.at_entry == tree.at_entry
        # Consume in two bites to exercise mid-step resumption.
        half = tree.remaining_iterations / 2.0
        flat.consume(half)
        tree.consume(half)
        assert flat.at_entry == tree.at_entry == False  # noqa: E712
        flat.consume(tree.remaining_iterations)
        tree.consume(tree.remaining_iterations)
    assert flat.finished


def test_flat_trace_is_cached_per_trace(machine):
    trace = _nested_trace(machine)
    assert flat_trace(trace) is flat_trace(trace)
    # 11 visits: a, 3 * (b, c, c), a.
    assert flat_trace(trace).n == 11


def test_oversized_trace_keeps_tree_walker(machine):
    seg = _zero_segment(machine, "s", 1.0)
    huge = Trace((Repeat((seg,), FLATTEN_LIMIT + 1),))
    assert flat_trace(huge) is None
    assert isinstance(make_cursor(huge), TraceCursor)
    # The verdict is cached too (the sentinel, not re-expansion).
    assert flat_trace(huge) is None


# -- shared step rows -----------------------------------------------------------


def test_visits_and_traces_share_one_row_per_segment(machine):
    """Every visit of a segment, in every trace holding it, references
    the segment's one row object per core type."""
    trace = _nested_trace(machine)
    a, repeat, _ = trace.nodes
    other = Trace((repeat.children[0], a))
    flats = [flat_trace(trace), flat_trace(other)]
    for name in [ct.name for ct in machine.core_types()]:
        for flat in flats:
            assert len(flat.rows[name]) == flat.n
            for seg, row in zip(flat.segs, flat.rows[name]):
                assert row is step_row(seg, name)
        # 13 visits of 3 segments: 3 row objects.
        assert len({id(r) for f in flats for r in f.rows[name]}) == 3


def test_fairness_setup_builds_one_row_per_segment_and_core_type():
    """Across Table 2's traces at paper scale (stock and all 18
    variants), distinct rows are exactly the distinct (segment, core
    type) pairs visited: no visit copies its segment's row."""
    config = ExperimentConfig.fairness_paper().with_(seed=1)
    machine = config.resolved_machine()
    workload = Workload.random(config.slots, seed=1)
    cache = PipelineCache()
    flats = []
    for name in sorted(workload.benchmark_names()):
        bench = spec_benchmark(name)
        for variant in (None,) + TABLE2_VARIANTS:
            strategy = config.strategy(variant) if variant else None
            trace, _ = run_trace(
                bench.program, strategy, machine, bench.spec, cache=cache
            )
            flats.append(flat_trace(trace))
    visits = sum(flat.n for flat in flats)
    pairs = {
        (id(seg), name) for flat in flats for name in flat.rows for seg in flat.segs
    }
    rows = {id(row) for flat in flats for col in flat.rows.values() for row in col}
    assert len(rows) == len(pairs)
    assert visits > 2 * len({id(seg) for flat in flats for seg in flat.segs})


def test_segments_sharing_cost_tuples_keep_their_own_rows(machine):
    """Marked copies share their template's cost tuples (tracegen's
    ``_marked``) but differ in marks, so each gets its own row."""
    plain = _zero_segment(machine, "a", 2.0)
    for name in [ct.name for ct in machine.core_types()]:
        step_row(plain, name)
    entry = _marked(plain, 0, (MarkRef(1, 0),), ())
    embedded = _marked(
        plain, None, (), (EmbeddedMark(2, 0, 0.5), EmbeddedMark(3, 1, 0.25))
    )
    assert entry._cost_tuples is plain._cost_tuples is embedded._cost_tuples
    for name in [ct.name for ct in machine.core_types()]:
        rows = [step_row(seg, name) for seg in (plain, entry, embedded)]
        assert [row[4:8] for row in rows] == [rows[0][4:8]] * 3
        # (ovh, emb_multi) and (entry_marked, any_marked) differ.
        assert [row[2:4] for row in rows] == [
            (0.0, False), (0.0, False), (0.75 * MARK_FIRE_CYCLES, True)
        ]
        assert [row[8:] for row in rows] == [
            (False, False), (True, True), (False, True)
        ]


def test_hand_built_repeat_trace_runs_identically(machine):
    """A hand-built nested-repeat trace through both executor paths."""

    def run(batched):
        sim = Simulation(machine, batched=batched)
        proc = SimProcess(
            1, "nested", _nested_trace(machine),
            machine.all_cores_mask, isolated_time=1.0,
        )
        sim.add_process(proc, 0.0)
        return _summary(sim.run(100.0))

    assert run(True) == run(False)


# -- quanta spanning many short steps -------------------------------------------

#: Steps in the short-step trace, and how many of them any one quantum
#: that starts at a step boundary must provably complete.
SHORT_STEPS = 128
MIN_STEPS_PER_QUANTUM = 10

_SHORT_DVFS_SCALE = 0.7
_SHORT_SHRINK = 0.5


def _short_step_trace(machine):
    """A runtime-less, mark-free trace of short steps with distinct
    costs (so every step's float arithmetic differs), stall cycles (so
    L2 co-runners contend) and L2 hits (so pollution and memory
    pressure apply)."""
    steps = []
    for i in range(SHORT_STEPS):
        vector = CostVector.zero(machine.core_types())
        vector.instrs = 40.0 + i
        for name in vector.compute:
            vector.compute[name] = 1900.0 + 13.25 * i
            vector.stall[name] = 450.0 + 7.5 * (i % 11)
            vector.l2hits[name] = 3.0 + 0.125 * (i % 5)
        steps.append(Segment(f"s{i}", None, 700.0 + 37.0 * (i % 9), vector))
    return Trace(tuple(steps))


def _worst_step_seconds(sim, trace):
    """Upper bound on each step's duration on any core: the slowest
    clock after the DVFS step, the most-stalled co-runner (stall
    fraction 1) and the memory-pressure shrink, all at once."""
    bounds = []
    for seg in trace.nodes:
        worst = 0.0
        for core in sim.machine.cores:
            name = core.ctype.name
            compute, stall, l2, _, _ = seg.cost_tuple(name)
            penalty = sim._pollution_penalty[name]
            cycles = (
                compute
                + stall * (1.0 + sim.contention_alpha)
                + (sim.pollution_beta + _SHORT_SHRINK) * l2 * penalty
            )
            freq = core.ctype.freq_hz * _SHORT_DVFS_SCALE
            worst = max(worst, seg.iterations * cycles / freq)
        bounds.append(worst)
    return bounds


def _short_step_run(machine, batched, procs, faults=None):
    sim = Simulation(machine, faults=faults, batched=batched)
    for pid in range(procs):
        # Cores 0 and 1 share an L2: two processes run side by side.
        proc = SimProcess(
            pid, f"short{pid}", _short_step_trace(machine),
            frozenset({0, 1}), isolated_time=1.0,
        )
        sim.add_process(proc, 0.0)
    return sim, _summary(sim.run(100.0))


@pytest.mark.parametrize(
    "procs, faulted",
    [(1, False), (2, False), (2, True)],
    ids=["alone", "shared-l2", "dvfs-and-memory-pressure"],
)
def test_quantum_across_many_short_steps_matches_stepped(machine, procs, faulted):
    """Quanta that cross at least ten mark-free steps run the same
    floats on both paths: alone, beside an L2 co-runner, and with a
    DVFS step and L2 memory pressure landing mid-run."""
    plan = None
    if faulted:
        plan = FaultPlan(
            seed=3,
            dvfs=(DvfsEvent(time=0.03, core_id=0, scale=_SHORT_DVFS_SCALE),),
            mem_pressure=(
                MemoryPressureEvent(time=0.06, core_id=1, shrink=_SHORT_SHRINK),
            ),
        )
    sim, batched = _short_step_run(machine, True, procs, faults=plan)
    # Any quantum that starts at a step boundary (every process's first
    # one does) completes at least MIN_STEPS_PER_QUANTUM steps, even
    # under the worst slowdown this test can apply.
    worst = _worst_step_seconds(sim, _short_step_trace(machine))
    assert len(worst) >= 64
    timeslice = sim.scheduler.timeslice
    assert timeslice == 0.05
    assert all(
        sum(worst[i : i + MIN_STEPS_PER_QUANTUM]) < timeslice
        for i in range(len(worst) - MIN_STEPS_PER_QUANTUM + 1)
    )
    # Every process finishes, over at least three quanta, so quanta
    # also resume mid-step.
    assert len(batched["completed"]) == procs
    assert all(p[2] > 2 * timeslice for p in batched["completed"])
    assert batched == _short_step_run(machine, False, procs, faults=plan)[1]
    if faulted:
        # The plan really changed the run (otherwise this is vacuous).
        assert batched != _short_step_run(machine, True, procs)[1]
