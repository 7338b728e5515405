"""Property tests pinning the batched executor to the stepped reference.

One invariant, swept over random seeds, nonzero fault plans, and
tracing on/off: the stepped (``batched=False``) and batched (default)
executors produce *exactly* equal results — completion floats,
switch/migration counts, telemetry event streams, throughput buckets,
idle accounting.
"""

from hypothesis import given, settings, strategies as st

from repro.sim import SimProcess, Simulation, TraceGenerator, core2quad_amp
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
