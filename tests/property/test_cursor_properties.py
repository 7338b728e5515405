"""Property-based tests for the trace cursor and executor accounting."""

import math

from hypothesis import example, given, settings, strategies as st

from repro.sim import Simulation, SimProcess, core2quad_amp
from repro.sim.cost_model import CostVector
from repro.sim.process import Repeat, Segment, Trace, TraceCursor

MACHINE = core2quad_amp()


def _segment(uid, iters, cycles=100.0, instrs=50.0):
    vector = CostVector.zero(MACHINE.core_types())
    vector.instrs = instrs
    for name in vector.compute:
        vector.compute[name] = cycles
    return Segment(uid, None, float(iters), vector)


# Recursive trace structures: segments at the leaves, repeats inside.
trace_nodes = st.recursive(
    st.builds(
        _segment,
        uid=st.just("s"),
        iters=st.integers(min_value=0, max_value=20),
    ),
    lambda children: st.builds(
        Repeat,
        children=st.lists(children, min_size=0, max_size=3).map(tuple),
        count=st.integers(min_value=0, max_value=4),
    ),
    max_leaves=10,
)
traces = st.lists(trace_nodes, min_size=0, max_size=5).map(
    lambda nodes: Trace(tuple(nodes))
)


def _segment_visits(node) -> int:
    """How many times a walk enters a segment with work to do."""
    if isinstance(node, Segment):
        return 1 if node.iterations > 0 else 0
    return node.count * sum(_segment_visits(child) for child in node.children)


def _nest(node, depth):
    for _ in range(depth):
        node = Repeat(children=(node,), count=4)
    return node


@settings(max_examples=60, deadline=None)
@given(trace=traces, chunk=st.floats(min_value=0.5, max_value=50.0))
# 256 visits of a 20-iteration segment in half-iteration chunks: 10,240
# steps, every one of them needed.
@example(trace=Trace((_nest(_segment("s", 20), 4),)), chunk=0.5)
def test_cursor_consumes_exact_totals(trace, chunk):
    """Walking any trace in arbitrary chunks consumes exactly the
    structure's total iterations."""
    expected = trace.total_instrs() / 50.0  # 50 instrs per iteration.
    # Progress guarantee: each segment visit takes at most one partial
    # chunk on top of its whole ones.
    max_steps = (
        math.ceil(expected / chunk)
        + sum(_segment_visits(node) for node in trace.nodes)
        + 1
    )
    cursor = TraceCursor(trace)
    consumed = 0.0
    steps = 0
    while not cursor.finished:
        take = min(chunk, cursor.remaining_iterations)
        if take <= 0:
            take = cursor.remaining_iterations
        cursor.consume(take)
        consumed += take
        steps += 1
        assert steps <= max_steps
    assert abs(consumed - expected) < 1e-6


@settings(max_examples=30, deadline=None)
@given(trace=traces)
def test_executor_commits_exact_instructions(trace):
    """The simulator retires exactly the trace's instruction total."""
    if trace.total_instrs() == 0:
        return
    sim = Simulation(MACHINE)
    proc = SimProcess(
        1, "p", trace, MACHINE.all_cores_mask, isolated_time=1.0
    )
    sim.add_process(proc, 0.0)
    result = sim.run(1e6)
    assert proc.finished
    assert abs(proc.stats.instructions - trace.total_instrs()) < 1e-3


@settings(max_examples=40, deadline=None)
@given(trace=traces)
def test_cursor_never_yields_zero_iteration_segment(trace):
    cursor = TraceCursor(trace)
    while not cursor.finished:
        assert cursor.current.iterations > 0
        cursor.consume(cursor.remaining_iterations)
