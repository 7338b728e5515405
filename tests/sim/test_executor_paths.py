"""Exact-equality tests between the executor's two quantum paths.

``Simulation(batched=True)`` (the default) runs quanta through the flat
trace arrays; ``batched=False`` — or the ``REPRO_NO_BATCH`` environment
kill-switch — forces the stepped tree-walking reference.  Beyond the
golden cases in :mod:`tests.sim.test_batched_executor`, these pin the
two paths equal over long runs (with and without the runtime), under
machine faults, under tracing (same telemetry spans), and across a
checkpoint kill/resume, including a resume from a snapshot in the older
format that still carried a ``"coalesce"`` mode flag.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import make_workload
from repro.instrument import LoopStrategy
from repro.instrument.marker import parse_strategy
from repro.sim import Simulation
from repro.sim.checkpoint import (
    CheckpointManager,
    load_checkpoint,
    save_checkpoint,
)
from repro.sim.executor import NO_BATCH_ENV
from repro.sim.faults import DvfsEvent, FaultPlan, HotplugEvent
from repro.telemetry.context import set_recorder
from repro.telemetry.recorder import TraceRecorder
from repro.tuning.pipeline import PipelineCache
from repro.workloads.workload import WorkloadRun
from tests.sim.test_batched_executor import LONG_RUN, _run, _summary


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


# -- checkpoint/resume mid-run --------------------------------------------------


def _tuned_run(config, cache, checkpoint=None, until=None):
    run = WorkloadRun(
        make_workload(config),
        config.resolved_machine(),
        parse_strategy("Loop[45]"),
        cache=cache,
    )
    return run.run(
        until if until is not None else config.interval,
        runtime=config.make_runtime(None),
        checkpoint=checkpoint,
    )


def _killed_run(config, cache, ckpt_dir):
    """A batched run checkpointed every 3 s and stopped at 8 s."""
    partial = CheckpointManager(ckpt_dir, interval=3.0)
    _tuned_run(config, cache, checkpoint=partial, until=8.0)
    assert partial.saves > 0


def _stepped_reference(config, cache, monkeypatch):
    with monkeypatch.context() as env:
        env.setenv(NO_BATCH_ENV, "1")
        return _summary(_tuned_run(config, cache))


def test_kill_resume_mid_run_matches_stepped(tmp_path, monkeypatch):
    """A batched run killed and resumed from a checkpoint snapshot
    reproduces the uninterrupted stepped run bit for bit."""
    config = ExperimentConfig(slots=4, interval=20.0, seed=11)
    cache = PipelineCache()
    reference = _stepped_reference(config, cache, monkeypatch)
    _killed_run(config, cache, tmp_path / "ck")
    resumed = _summary(
        _tuned_run(
            config, cache, checkpoint=CheckpointManager(tmp_path / "ck", 3.0)
        )
    )
    assert resumed == reference


def test_resume_from_snapshot_with_coalesce_flag(tmp_path, monkeypatch):
    """Snapshots written while the executor had a coalescing mode are
    version 2 and carry one extra key, ``"coalesce"``.  A checkpoint in
    that format still resumes, and matches the uninterrupted stepped
    run."""
    config = ExperimentConfig(slots=4, interval=20.0, seed=11)
    cache = PipelineCache()
    reference = _stepped_reference(config, cache, monkeypatch)
    _killed_run(config, cache, tmp_path / "ck")
    manager = CheckpointManager(tmp_path / "ck", 3.0)
    newest = manager.checkpoint_files()[-1]
    state = load_checkpoint(newest)
    assert "coalesce" not in state
    state["version"] = 2
    state["coalesce"] = True
    save_checkpoint(state, newest)
    assert manager.latest_state()["coalesce"] is True

    resumed = _summary(_tuned_run(config, cache, checkpoint=manager))
    assert resumed == reference
