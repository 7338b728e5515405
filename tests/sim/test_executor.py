"""Unit tests for the discrete-event executor."""

import gc
import weakref

import pytest

from repro.instrument import LoopStrategy, instrument
from repro.sim import (
    BehaviorSpec,
    Simulation,
    SimProcess,
    TraceGenerator,
    core2quad_amp,
)
from repro.sim.cost_model import CostVector
from repro.sim.executor import MarkAction
from repro.sim.process import EmbeddedMark, MarkRef, Segment, Trace
from tests.conftest import make_phased_program


def _simple_segment(machine, cycles=1e7, instrs=5e6, iters=1.0, **kw):
    vector = CostVector.zero(machine.core_types())
    vector.instrs = instrs
    for name in vector.compute:
        vector.compute[name] = cycles
    return Segment("seg", kw.pop("phase_type", None), iters, vector, **kw)


def _proc(machine, pid=1, segments=None, affinity=None):
    trace = Trace(tuple(segments or (_simple_segment(machine),)))
    return SimProcess(
        pid, f"p{pid}", trace, affinity or machine.all_cores_mask,
        isolated_time=1.0,
    )


def test_single_process_completes(machine):
    sim = Simulation(machine)
    proc = _proc(machine)
    sim.add_process(proc, 0.0)
    result = sim.run(100.0)
    assert result.completed == [proc]
    assert proc.completion > 0
    assert proc.stats.instructions == pytest.approx(5e6)


def test_wall_time_matches_frequency(machine):
    """1e7 compute cycles on a lone process lands on a 2.4 GHz core."""
    sim = Simulation(machine)
    proc = _proc(machine)
    sim.add_process(proc, 0.0)
    sim.run(100.0)
    assert proc.completion == pytest.approx(1e7 / 2.4e9, rel=0.01)


def test_affinity_restricts_placement(machine):
    sim = Simulation(machine)
    proc = _proc(machine, affinity=frozenset({2, 3}))
    sim.add_process(proc, 0.0)
    sim.run(100.0)
    # All cycles were spent on slow cores.
    assert set(proc.stats.cycles_by_type) == {"slow"}


def test_parallelism_across_cores(machine):
    sim = Simulation(machine)
    procs = [_proc(machine, pid=i) for i in range(4)]
    for p in procs:
        sim.add_process(p, 0.0)
    result = sim.run(100.0)
    assert len(result.completed) == 4
    # Four jobs, four cores: the two fast finish together, slow later,
    # but all well before 2x the slow solo time.
    slowest = max(p.completion for p in procs)
    assert slowest <= 2 * (1e7 / 1.6e9)


def test_timesharing_two_jobs_one_core(machine):
    sim = Simulation(machine)
    a = _proc(machine, pid=1, affinity=frozenset({0}))
    b = _proc(machine, pid=2, affinity=frozenset({0}))
    sim.add_process(a, 0.0)
    sim.add_process(b, 0.0)
    sim.run(100.0)
    solo = 1e7 / 2.4e9
    assert max(a.completion, b.completion) == pytest.approx(2 * solo, rel=0.1)


def test_work_conservation(machine):
    """Instructions committed equals the sum over processes."""
    sim = Simulation(machine)
    procs = [_proc(machine, pid=i) for i in range(6)]
    for p in procs:
        sim.add_process(p, 0.0)
    result = sim.run(100.0)
    total = sum(p.stats.instructions for p in procs)
    committed = sum(result.throughput_buckets.values())
    assert committed == pytest.approx(total)


def test_mark_triggers_runtime(machine):
    calls = []

    class Recorder:
        def on_mark(self, proc, mark_id, phase_type, core, now):
            calls.append((mark_id, phase_type))
            return MarkAction()

        def on_process_end(self, proc, now):
            calls.append(("end", proc.pid))

        def assignment_for(self, proc, phase_type):
            return None

    seg = _simple_segment(
        machine, entry_marks=(MarkRef(7, 1),), phase_type=1
    )
    sim = Simulation(machine, runtime=Recorder())
    sim.add_process(_proc(machine, segments=[seg]), 0.0)
    sim.run(100.0)
    assert (7, 1) in calls
    assert ("end", 1) in calls


def test_affinity_change_migrates_and_counts_switch(machine):
    class Mover:
        def on_mark(self, proc, mark_id, phase_type, core, now):
            return MarkAction(affinity=frozenset({3}))

        def on_process_end(self, proc, now):
            pass

        def assignment_for(self, proc, phase_type):
            return None

    seg = _simple_segment(machine, entry_marks=(MarkRef(0, 1),))
    proc = _proc(machine, segments=[seg])
    sim = Simulation(machine, runtime=Mover())
    sim.add_process(proc, 0.0)
    sim.run(100.0)
    assert proc.stats.migrations == 1
    assert proc.stats.switches == 1
    assert proc.affinity == frozenset({3})
    assert "slow" in proc.stats.cycles_by_type


def test_embedded_mark_overhead_charged(machine):
    plain = _simple_segment(machine, iters=1000.0, cycles=1e4, instrs=5e3)
    marked = _simple_segment(
        machine,
        iters=1000.0,
        cycles=1e4,
        instrs=5e3,
        embedded=(EmbeddedMark(0, 1, 2.0),),
    )
    sim_a = Simulation(machine)
    pa = _proc(machine, segments=[plain])
    sim_a.add_process(pa, 0.0)
    sim_a.run(100.0)
    sim_b = Simulation(machine)
    pb = _proc(machine, segments=[marked])
    sim_b.add_process(pb, 0.0)
    sim_b.run(100.0)
    assert pb.completion > pa.completion
    assert pb.stats.mark_overhead_cycles > 0


def test_on_complete_spawns_replacement(machine):
    spawned = []

    def on_complete(proc, now):
        if len(spawned) < 2:
            replacement = _proc(machine, pid=proc.pid + 10)
            spawned.append(replacement)
            return replacement
        return None

    sim = Simulation(machine, on_complete=on_complete)
    sim.add_process(_proc(machine, pid=1), 0.0)
    result = sim.run(100.0)
    assert len(result.completed) == 3  # Original plus two replacements.


def test_idle_time_accounted(machine):
    sim = Simulation(machine)
    sim.add_process(_proc(machine), 0.0)
    result = sim.run(10.0)
    # One short job: nearly all of every core's 10 s is idle.
    total_idle = sum(result.idle_time_by_core.values())
    assert total_idle > 39.0


def test_l2_contention_slows_memory_neighbors(machine):
    """Two streaming jobs pinned to one L2 pair run slower than one."""
    # Long enough that execution spans many quanta (contention is read
    # from the co-runner's previous quantum).
    program, spec = make_phased_program(
        compute_iters=1, memory_iters=200_000, outer=20
    )
    generator = TraceGenerator(machine)

    def run(n_jobs):
        sim = Simulation(machine, contention_alpha=1.0)
        procs = []
        for pid in range(n_jobs):
            trace = generator.generate(program, spec)
            proc = SimProcess(
                pid, "m", trace, frozenset({2, 3}), isolated_time=1.0
            )
            procs.append(proc)
            sim.add_process(proc, 0.0)
        sim.run(1000.0)
        return procs

    solo = run(1)[0]
    pair = run(2)
    slowest = max(p.completion for p in pair)
    # With a core each, completion would match solo absent contention.
    assert slowest > solo.completion * 1.1


def test_throughput_buckets_timeline(machine):
    sim = Simulation(machine)
    sim.add_process(_proc(machine), 0.0)
    result = sim.run(100.0)
    assert result.instructions_before(100.0) == pytest.approx(5e6)
    assert result.instructions_before(0.0) == 0.0


def test_end_to_end_phased_tuning_runs(machine):
    """Integration shake: instrumented phased program under the runtime."""
    from repro.tuning import PhaseTuningRuntime

    program, spec = make_phased_program(outer=6)
    inst = instrument(program, LoopStrategy(20))
    generator = TraceGenerator(machine)
    runtime = PhaseTuningRuntime(machine, 0.12)
    sim = Simulation(machine, runtime=runtime)
    proc = SimProcess(
        1, "phased", generator.generate(inst, spec),
        machine.all_cores_mask, isolated_time=1.0,
    )
    sim.add_process(proc, 0.0)
    result = sim.run(1000.0)
    assert result.completed
    assert proc.stats.mark_firings > 0


@pytest.mark.parametrize("tuned", [False, True], ids=["stock", "tuned"])
def test_finished_run_is_freed_without_the_cycle_collector(
    machine, monkeypatch, tuned
):
    """The scheduler's waker closes over per-core state, not over the
    simulation, so the two form no reference cycle: with the cycle
    collector off, a finished ``WorkloadRun.run``'s simulation is freed
    as soon as the run returns."""
    from repro.experiments.config import ExperimentConfig
    from repro.workloads import workload as workload_module
    from repro.workloads.workload import Workload, WorkloadRun

    refs = []

    class Recorded(Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(workload_module, "Simulation", Recorded)
    config = ExperimentConfig(machine=machine)
    strategy = config.strategy("Loop[45]") if tuned else None
    runtime = config.make_runtime() if tuned else None
    run = WorkloadRun(Workload.random(4, seed=1, queue_length=16), machine, strategy)
    gc.disable()
    try:
        result = run.run(5.0, runtime=runtime)
        assert len(refs) == 1
        assert refs[0]() is None
    finally:
        gc.enable()
    assert result.throughput_buckets
