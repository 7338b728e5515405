"""Exact-equality tests between the executor's two quantum paths.

``Simulation(batched=True)`` (the default) runs quanta through the flat
trace arrays; ``batched=False`` — or the ``REPRO_NO_BATCH`` environment
kill-switch — forces the stepped tree-walking reference.  Beyond the
golden cases in :mod:`tests.sim.test_batched_executor`, these pin the
two paths equal over long runs (with and without the runtime), under
machine faults, and under tracing (same telemetry spans).
"""

from repro.instrument import LoopStrategy
from repro.sim import Simulation
from repro.sim.executor import NO_BATCH_ENV
from repro.sim.faults import DvfsEvent, FaultPlan, HotplugEvent
from repro.telemetry.context import set_recorder
from repro.telemetry.recorder import TraceRecorder
from tests.sim.test_batched_executor import LONG_RUN, _run


def test_batched_matches_stepped_long_run(machine):
    """Hundreds of quanta per process, no runtime: identical down to
    the float."""
    assert _run(machine, True, **LONG_RUN) == _run(machine, False, **LONG_RUN)


def test_batched_matches_stepped_long_run_under_runtime(machine):
    strategy = LoopStrategy(20)
    assert _run(machine, True, strategy=strategy, **LONG_RUN) == _run(
        machine, False, strategy=strategy, **LONG_RUN
    )


def test_batched_matches_stepped_with_machine_faults(machine):
    """A runtime-less run with hotplug + DVFS landing mid-run: both
    paths agree exactly, and the plan really changes the result."""
    span = _run(machine, False, **LONG_RUN)["time"]
    plan = FaultPlan(
        seed=5,
        hotplug=(
            HotplugEvent(time=span * 0.3, core_id=1, online=False),
            HotplugEvent(time=span * 0.6, core_id=1, online=True),
        ),
        dvfs=(DvfsEvent(time=span * 0.5, core_id=0, scale=0.8),),
    )
    faulted = _run(machine, True, faults=plan, **LONG_RUN)
    assert faulted == _run(machine, False, faults=plan, **LONG_RUN)
    assert faulted != _run(machine, True, **LONG_RUN)  # the plan really bit


# -- telemetry spans ------------------------------------------------------------


def test_quantum_spans_identical_under_tracing(machine):
    """With the high-volume ``quantum`` category on, the batched run
    emits the same span events (same times, cores, durations, pids) in
    the same order as the stepped loop."""

    def traced(batched):
        recorder = TraceRecorder(categories={"exec", "sched", "quantum"})
        previous = set_recorder(recorder)
        try:
            summary = _run(machine, batched, **LONG_RUN)
        finally:
            set_recorder(previous)
        # Scrub the recorder-assigned run id (field 3): it is an
        # allocation counter, not simulation output.
        events = [e[:3] + e[4:] for e in recorder.events]
        return summary, events

    b_summary, b_events = traced(True)
    s_summary, s_events = traced(False)
    assert b_summary == s_summary
    assert b_events == s_events
    assert any(e[1] == "quantum" for e in b_events)


# -- environment kill-switch ----------------------------------------------------


def test_no_batch_env_forces_stepped_path(machine, monkeypatch):
    monkeypatch.setenv(NO_BATCH_ENV, "1")
    assert Simulation(machine).batched is False
    # An explicit argument beats the environment.
    assert Simulation(machine, batched=True).batched is True
