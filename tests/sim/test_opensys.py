"""Unit tests for the open-system workload engine."""

from __future__ import annotations

import json

import pytest

from repro.errors import OpenSystemError
from repro.sim import Simulation, SimProcess, core2quad_amp
from repro.sim.cost_model import CostVector
from repro.sim.executor import NO_BATCH_ENV
from repro.sim.opensys import (
    OPEN_PID_BASE,
    LoadController,
    OpenSystemPlan,
    OpenSystemResult,
    OpenSystemRun,
    service_capacity,
)
from repro.sim.process import Segment, Trace
from repro.sim.scheduler import LinuxO1Scheduler
from repro.taxonomy import state_of
from repro.workloads.workload import Workload, WorkloadRun

CLASSES = ("164.gzip", "429.mcf")


def _proc(machine, pid, cycles=1e7):
    vector = CostVector.zero(machine.core_types())
    vector.instrs = 5e6
    for name in vector.compute:
        vector.compute[name] = cycles
    trace = Trace((Segment("seg", None, 1.0, vector),))
    return SimProcess(pid, f"p{pid}", trace, machine.all_cores_mask,
                      isolated_time=1.0)


# -- plan ---------------------------------------------------------------------


def test_plan_arrivals_deterministic_and_bounded():
    plan = OpenSystemPlan(seed=5, rate=0.8, horizon=50.0, classes=CLASSES)
    a1, a2 = plan.arrivals(), plan.arrivals()
    assert a1 == a2
    assert a1
    assert all(0.0 < t < 50.0 for t, _ in a1)
    assert all(name in CLASSES for _, name in a1)
    times = [t for t, _ in a1]
    assert times == sorted(times)


def test_plan_uniform_process_is_deterministic_rate():
    plan = OpenSystemPlan(
        seed=5, rate=0.5, horizon=10.0, process="uniform", classes=CLASSES
    )
    times = [t for t, _ in plan.arrivals()]
    assert times == pytest.approx([2.0, 4.0, 6.0, 8.0])


def test_plan_rng_streams_independent():
    """Turning a knob on never shifts the draws behind another knob."""
    bare = OpenSystemPlan(seed=9, rate=0.6, horizon=40.0, classes=CLASSES)
    knobbed = OpenSystemPlan(
        seed=9, rate=0.6, horizon=40.0, classes=CLASSES,
        cancel_fraction=0.5, breakdowns=2,
    )
    assert bare.arrivals() == knobbed.arrivals()


def test_plan_cancellations_follow_arrivals():
    plan = OpenSystemPlan(
        seed=3, rate=1.0, horizon=40.0, classes=CLASSES, cancel_fraction=0.5
    )
    arrivals = plan.arrivals()
    cancels = plan.cancellations(arrivals)
    assert cancels == plan.cancellations(arrivals)
    assert 0 < len(cancels) < len(arrivals)
    for when, index in cancels:
        assert when > arrivals[index][0]


def test_plan_breakdowns_spare_core_zero():
    plan = OpenSystemPlan(seed=1, breakdowns=3, horizon=100.0)
    fault_plan = plan.breakdown_plan(core2quad_amp())
    events = fault_plan.hotplug
    assert len(events) == 6
    for down, up in zip(events[::2], events[1::2]):
        assert down.core_id == up.core_id != 0
        assert not down.online and up.online
        assert 0.0 < down.time < up.time <= 95.0


def test_plan_null_and_single_core_breakdowns_build_no_fault_plan(machine):
    assert OpenSystemPlan(seed=1).breakdown_plan(machine) is None
    from repro.sim.machine import symmetric_machine

    single = symmetric_machine(1)
    assert OpenSystemPlan(seed=1, breakdowns=2).breakdown_plan(single) is None


def test_plan_validation():
    with pytest.raises(OpenSystemError):
        OpenSystemPlan(rate=-1.0)
    with pytest.raises(OpenSystemError):
        OpenSystemPlan(horizon=0.0)
    with pytest.raises(OpenSystemError):
        OpenSystemPlan(process="bursty")
    with pytest.raises(OpenSystemError):
        OpenSystemPlan(rate=1.0)  # arrivals need classes
    with pytest.raises(OpenSystemError):
        OpenSystemPlan(cancel_fraction=1.5)
    with pytest.raises(OpenSystemError):
        OpenSystemPlan(breakdown_length=(0.0, 0.5))


# -- cancellation through the executor ---------------------------------------


def test_cancel_queued_process_teardown(machine):
    """A queued job is removed cleanly: runqueue, live set, ledger."""
    cancelled = []
    sim = Simulation(machine, on_cancel=lambda p, t: cancelled.append((p, t)))
    # 5 jobs on a 4-core machine: someone is always queued.
    procs = [_proc(machine, pid=i, cycles=5e8) for i in range(1, 6)]
    for proc in procs:
        sim.add_process(proc, 0.0)
    sim.cancel_process(3, 0.05)
    result = sim.run(100.0)
    assert [p.pid for p in result.cancelled] == [3]
    assert len(result.completed) == 4
    assert all(p.pid != 3 for p in result.completed)
    assert len(cancelled) == 1 and cancelled[0][0].pid == 3
    assert cancelled[0][1] >= 0.05
    assert sim.live_processes() == 0


def test_cancel_miss_reports_none(machine):
    hits = []
    sim = Simulation(machine, on_cancel=lambda p, t: hits.append(p))
    proc = _proc(machine, pid=1)
    sim.add_process(proc, 0.0)
    sim.cancel_process(99, 1.0)  # never existed
    sim.cancel_process(1, 50.0)  # long completed by then
    result = sim.run(100.0)
    assert result.completed == [proc]
    assert result.cancelled == []
    assert hits == [None, None]


def test_cancelled_process_not_respawned(machine):
    """on_complete is not invoked for cancelled jobs."""
    completions = []
    sim = Simulation(
        machine, on_complete=lambda p, t: completions.append(p.pid) and None
    )
    for pid in (1, 2, 3, 4, 5):
        sim.add_process(_proc(machine, pid=pid, cycles=5e8), 0.0)
    sim.cancel_process(2, 0.01)
    sim.run(100.0)
    assert 2 not in completions
    assert len(completions) == 4


def test_scheduler_remove(machine):
    sched = LinuxO1Scheduler()
    sched.attach(machine, waker=lambda cid, now: None)
    a, b = _proc(machine, pid=1), _proc(machine, pid=2)
    sched.enqueue(a, 0.0)
    sched.enqueue(b, 0.0)
    got = sched.remove(1, 0.0)
    assert got is a
    assert sched.remove(1, 0.0) is None
    assert len(list(sched.queued_processes())) == 1


class _CollectCancels:
    def __init__(self):
        self.pids = []

    def __call__(self, proc, now):
        self.pids.append(None if proc is None else proc.pid)


def test_cancel_reaches_the_on_cancel_callback(machine):
    collect = _CollectCancels()
    sim = Simulation(machine, on_cancel=collect)
    for pid in (1, 2, 3, 4, 5, 6):
        sim.add_process(_proc(machine, pid=pid, cycles=5e8), 0.0)
    sim.cancel_process(5, 0.08)
    result = sim.run(100.0)
    assert [p.pid for p in result.cancelled] == [5]
    assert collect.pids == [5]


# -- engine -------------------------------------------------------------------


def test_open_run_ledger_and_determinism(machine):
    plan = OpenSystemPlan(
        seed=11, rate=0.5, horizon=60.0, classes=CLASSES,
        cancel_fraction=0.3, breakdowns=1,
    )
    run = OpenSystemRun(plan, machine)
    res = run.run()
    assert res.arrived == res.completed + res.cancelled + res.in_flight
    assert res.arrived > 0 and res.completed > 0
    assert len(res.sojourn) == res.completed
    assert len(res.wait) == res.completed
    d1 = json.dumps(res.to_dict(), sort_keys=True)
    d2 = json.dumps(OpenSystemRun(plan, machine).run().to_dict(), sort_keys=True)
    assert d1 == d2


def test_open_run_stepped_vs_coalesced_identical(machine, monkeypatch):
    """The batched (default) open run equals the stepped one that
    ``REPRO_NO_BATCH`` forces.  (The name predates the removal of the
    coalesced path; it is kept so the test id stays stable.)"""
    plan = OpenSystemPlan(
        seed=4, rate=0.6, horizon=40.0, classes=CLASSES,
        cancel_fraction=0.2, breakdowns=1,
    )
    batched = OpenSystemRun(plan, machine).run()
    monkeypatch.setenv(NO_BATCH_ENV, "1")
    stepped = OpenSystemRun(plan, machine).run()
    assert json.dumps(batched.to_dict(), sort_keys=True) == json.dumps(
        stepped.to_dict(), sort_keys=True
    )


def test_zero_arrival_open_run_bit_identical_to_closed(machine):
    workload = Workload.random(4, seed=11, queue_length=8)
    closed_result = WorkloadRun(workload, machine).run(60.0)
    open_result = OpenSystemRun(
        OpenSystemPlan(seed=11, rate=0.0, horizon=60.0),
        machine,
        closed_workload=workload,
    ).run()

    def image(result):
        return [
            (p.pid, p.name, p.completion, p.stats.cpu_time, p.stats.switches)
            for p in sorted(result.completed, key=lambda p: p.pid)
        ]

    assert image(closed_result) == image(open_result.sim_result)
    assert open_result.arrived == 0
    assert open_result.completed == 0


def test_open_jobs_ride_alongside_closed_workload(machine):
    workload = Workload.random(2, seed=3, queue_length=4)
    plan = OpenSystemPlan(
        seed=3, rate=0.4, horizon=50.0, classes=CLASSES
    )
    res = OpenSystemRun(plan, machine, closed_workload=workload).run()
    assert res.arrived > 0
    # Closed completions stay out of the open ledger...
    closed_done = [
        p for p in res.sim_result.completed if p.pid < OPEN_PID_BASE
    ]
    assert closed_done
    # ...and open completions out of theirs.
    assert res.completed == len(
        [p for p in res.sim_result.completed if p.pid > OPEN_PID_BASE]
    )


def test_opensys_telemetry_events(machine):
    from repro.telemetry import TimelineAnalyzer, TraceRecorder
    from repro.telemetry.context import set_recorder

    recorder = TraceRecorder(categories={"exec", "opensys"})
    previous = set_recorder(recorder)
    try:
        plan = OpenSystemPlan(
            seed=11, rate=0.5, horizon=60.0, classes=CLASSES,
            cancel_fraction=0.3, breakdowns=1,
        )
        res = OpenSystemRun(plan, machine).run()
    finally:
        set_recorder(previous)
    analyzer = TimelineAnalyzer.from_recorder(recorder)
    run_id = max(analyzer.timelines)
    timeline = analyzer.timeline(run_id)
    names = [name for _, name, _ in timeline.opensys_events]
    assert names.count("arrival") == res.arrived
    cancels = [
        args for _, name, args in timeline.opensys_events if name == "cancel"
    ]
    assert len(cancels) == res.cancelled + res.cancel_misses
    assert all(state_of(args["reason"]) == "cancelled" for args in cancels)
    assert "breakdown" in names and "repair" in names
    depth = analyzer.queue_depth(run_id)
    assert depth and max(value for _, value in depth) >= 1


# -- capacity and the load controller ----------------------------------------


def test_service_capacity(machine):
    # 2 fast + 2 slow at 1.6/2.4 -> 2 + 2*(2/3) effective cores.
    assert service_capacity(machine, 10.0) == pytest.approx(10.0 / 3 / 10.0)
    with pytest.raises(OpenSystemError):
        service_capacity(machine, 0.0)


def test_load_controller_sweep():
    base = OpenSystemPlan(seed=2, horizon=30.0, classes=CLASSES)

    def fake_runner(plan):
        from repro.metrics.latency import LatencySketch, QueueDepthSeries

        saturating = plan.rate >= 1.5
        depth = QueueDepthSeries()
        depth.record(0.0, 0)
        depth.record(20.0, 40 if saturating else 1)
        return OpenSystemResult(
            plan=plan, horizon=30.0, arrived=10, completed=10,
            cancelled=0, cancel_misses=0, sojourn=LatencySketch(),
            wait=LatencySketch(), depth=depth,
        )

    controller = LoadController(base, capacity=2.0, runner=fake_runner)
    assert controller.plan_at(0.5).rate == pytest.approx(1.0)
    sweep = controller.sweep((0.25, 0.5, 0.8, 0.9, 1.0), stop_past_saturation=1)
    assert sweep.saturation_fraction == 0.8
    assert len(sweep.points) == 3  # stopped after the first saturated point
    with pytest.raises(OpenSystemError):
        LoadController(base, capacity=0.0, runner=fake_runner)
    with pytest.raises(OpenSystemError):
        controller.plan_at(-0.1)
