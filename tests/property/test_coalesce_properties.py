"""Property tests pinning the batched executor to the stepped reference.

One invariant, swept over random seeds, nonzero fault plans, and
tracing on/off: the stepped (``batched=False``) and batched (default)
executors produce *exactly* equal results — completion floats,
switch/migration counts, telemetry event streams, throughput buckets,
idle accounting — and the equality survives a kill/resume from a
checkpoint cut between two grid points.
"""

from hypothesis import given, settings, strategies as st

from repro.sim import SimProcess, Simulation, TraceGenerator, core2quad_amp
from repro.sim.checkpoint import CheckpointManager
from repro.sim.faults import FaultPlan
from repro.telemetry.context import set_recorder
from repro.telemetry.recorder import TraceRecorder
from tests.conftest import make_phased_program
from tests.sim.test_batched_executor import _summary

MACHINE = core2quad_amp()
INTERVAL = 40.0

_PROGRAM, _SPEC = make_phased_program(
    compute_iters=2_000_000, memory_iters=2_000_000, outer=20
)
_TRACE = TraceGenerator(MACHINE).generate(_PROGRAM, _SPEC)


def _build(plan, *, batched=True):
    sim = Simulation(MACHINE, faults=plan, batched=batched)
    for pid in range(5):
        sim.add_process(
            SimProcess(
                pid,
                f"p{pid}",
                _TRACE,
                MACHINE.all_cores_mask,
                isolated_time=1.0,
            ),
            0.0,
        )
    return sim


def _run(plan, *, batched=True, traced=False):
    """One run; returns (summary, telemetry events sans run id)."""
    recorder = None
    if traced:
        recorder = TraceRecorder(categories={"exec", "sched", "quantum"})
        previous = set_recorder(recorder)
    try:
        summary = _summary(_build(plan, batched=batched).run(INTERVAL))
    finally:
        if traced:
            set_recorder(previous)
    events = (
        [e[:3] + e[4:] for e in recorder.events] if traced else None
    )
    return summary, events


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    rate=st.floats(min_value=0.1, max_value=1.0),
    traced=st.booleans(),
)
def test_three_paths_exactly_equal(seed, rate, traced):
    """Batched equals stepped.  (The name predates the removal of the
    third, coalesced path; it is kept so the test id stays stable.)"""
    plan = FaultPlan.scaled(rate, MACHINE, INTERVAL, seed=seed)
    batched = _run(plan, traced=traced)
    stepped = _run(plan, batched=False, traced=traced)
    assert batched == stepped


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    cut=st.floats(min_value=3.0, max_value=12.0),
)
def test_kill_resume_mid_window_equals_stepped(seed, cut, tmp_path_factory):
    """A batched run checkpointed on the grid, killed at *cut*, and
    resumed from its snapshot matches the uninterrupted stepped run."""
    plan = FaultPlan.scaled(0.5, MACHINE, INTERVAL, seed=seed)
    reference, _ = _run(plan, batched=False)

    ckpt_dir = tmp_path_factory.mktemp("ck")
    partial = CheckpointManager(ckpt_dir, interval=2.0)
    _build(plan).run(cut, checkpoint=partial)
    assert partial.saves > 0

    state = CheckpointManager(ckpt_dir, interval=2.0).latest_state()
    resumed = Simulation.from_snapshot(state)
    assert resumed.batched
    assert _summary(resumed.run(INTERVAL)) == reference
