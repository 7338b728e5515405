"""Unit tests for traces, the cursor, and process bookkeeping."""

import copyreg
import io
import pickle
from dataclasses import fields, replace

import pytest

from repro.errors import SimulationError
from repro.sim.cost_model import CostVector
from repro.sim.flattrace import step_row
from repro.sim.machine import core2quad_amp
from repro.sim.process import (
    EmbeddedMark,
    MarkRef,
    Repeat,
    Segment,
    SimProcess,
    Trace,
    TraceCursor,
)


def _vector(cycles=10.0, instrs=5.0):
    v = CostVector.zero(core2quad_amp().core_types())
    v.instrs = instrs
    v.compute["fast"] = cycles
    v.compute["slow"] = cycles
    return v


def _segment(uid="s", iters=4.0, cycles=10.0, instrs=5.0):
    return Segment(uid, None, iters, _vector(cycles, instrs))


def test_trace_totals():
    trace = Trace((_segment(iters=3, cycles=10, instrs=5),))
    assert trace.total_instrs() == 15.0
    assert trace.total_cycles("fast") == 30.0


def test_repeat_totals_multiply():
    inner = _segment(iters=2, cycles=10, instrs=5)
    trace = Trace((Repeat((inner,), 4),))
    assert trace.total_instrs() == 40.0
    assert trace.total_cycles("fast") == 80.0


def test_cursor_walks_flat_trace():
    a, b = _segment("a"), _segment("b")
    cursor = TraceCursor(Trace((a, b)))
    assert cursor.current is a
    assert cursor.at_entry
    cursor.consume(4.0)
    assert cursor.current is b
    assert cursor.at_entry
    cursor.consume(4.0)
    assert cursor.finished


def test_cursor_partial_consumption():
    cursor = TraceCursor(Trace((_segment(iters=10),)))
    cursor.consume(3.0)
    assert cursor.remaining_iterations == pytest.approx(7.0)
    assert not cursor.at_entry
    cursor.consume(7.0)
    assert cursor.finished


def test_cursor_repeats_children():
    a, b = _segment("a", iters=1), _segment("b", iters=1)
    cursor = TraceCursor(Trace((Repeat((a, b), 3),)))
    visits = []
    while not cursor.finished:
        visits.append(cursor.current.uid)
        cursor.consume(cursor.remaining_iterations)
    assert visits == ["a", "b"] * 3


def test_cursor_nested_repeats():
    leaf = _segment("x", iters=1)
    trace = Trace((Repeat((Repeat((leaf,), 2),), 3),))
    cursor = TraceCursor(trace)
    count = 0
    while not cursor.finished:
        count += 1
        cursor.consume(1.0)
    assert count == 6


def test_cursor_skips_empty_nodes():
    empty_repeat = Repeat((), 5)
    zero_seg = _segment("z", iters=0)
    tail = _segment("t", iters=1)
    cursor = TraceCursor(Trace((empty_repeat, zero_seg, tail)))
    assert cursor.current is tail


def _marked_trace(iters=4.0):
    marked = Segment("m", 0, 2.0, _vector(), entry_marks=(MarkRef(3, 1),))
    return Trace((Repeat((marked, _segment(iters=iters)), 3),))


def _compared(cls):
    return {f.name for f in fields(cls) if f.compare}


def test_content_digest_covers_every_compared_field():
    # A compared field added to these classes must also enter the
    # digest text (repro.sim.process._content_parts).
    assert _compared(Segment) == {
        "uid", "phase_type", "iterations", "cost", "entry_marks", "embedded"
    }
    assert _compared(CostVector) == {"instrs", "compute", "stall", "l2hits"}
    assert _compared(Repeat) == {"children", "count"}
    segment = Segment(
        "m", 0, 2.0, _vector(),
        entry_marks=(MarkRef(3, 1),),
        embedded=(EmbeddedMark(4, 0, 0.5),),
    )
    cost = segment.cost
    costs = [
        replace(cost, instrs=6.0),
        replace(cost, compute={**cost.compute, "fast": 1.0}),
        replace(cost, stall={**cost.stall, "slow": 1.0}),
        replace(cost, l2hits={**cost.l2hits, "slow": 1.0}),
    ]
    variants = [
        replace(segment, uid="n"),
        replace(segment, phase_type=1),
        replace(segment, iterations=3.0),
        replace(segment, entry_marks=(MarkRef(3, 0),)),
        replace(segment, embedded=(EmbeddedMark(4, 0, 0.25),)),
    ] + [replace(segment, cost=changed) for changed in costs]
    digests = {Trace((s,)).content_digest() for s in [segment, *variants]}
    assert len(digests) == len(variants) + 1
    assert (
        Trace((Repeat((segment,), 2),)).content_digest()
        != Trace((Repeat((segment,), 3),)).content_digest()
    )


def test_content_digest_follows_equality():
    trace = _marked_trace()
    assert trace.content_digest() == _marked_trace().content_digest()
    assert trace.content_digest() != _marked_trace(iters=5.0).content_digest()


def test_content_digest_is_a_pure_cache():
    trace = _marked_trace()
    digest = trace.content_digest()
    assert trace._digest == digest
    assert trace == _marked_trace()  # the memo is not compared
    for segment in trace.segments():
        segment.cost_tuple("fast")  # neither is the segment cost cache
    trace._digest = None
    assert trace.content_digest() == digest
    restored = pickle.loads(pickle.dumps(trace))
    assert restored._digest is None
    assert restored.content_digest() == digest


def _cached_segment():
    """A marked segment with every cache filled."""
    segment = Segment(
        "m", 0, 2.0, _vector(),
        entry_marks=(MarkRef(3, 1),),
        embedded=(EmbeddedMark(4, 0, 0.5), EmbeddedMark(5, 1, 0.25)),
    )
    for name in ("fast", "slow"):
        step_row(segment, name)
    assert segment._cost_tuples and segment._embedded_rate and segment._rows
    return segment


def _assert_rebuilds(restored, segment):
    """*restored* equals *segment* and carries no cache until asked,
    then rebuilds every cache to the same floats."""
    assert restored == segment
    assert restored._cost_tuples is None
    assert restored._embedded_rate is None
    assert restored._rows is None
    for name in ("fast", "slow"):
        assert step_row(restored, name) == step_row(segment, name)
        assert restored.cost_tuple(name) == segment.cost_tuple(name)
    assert restored.embedded_rate == segment.embedded_rate


def test_segment_pickles_without_its_caches():
    segment = _cached_segment()
    blob = pickle.dumps(segment, protocol=pickle.HIGHEST_PROTOCOL)
    bare = Segment(
        segment.uid, segment.phase_type, segment.iterations, segment.cost,
        entry_marks=segment.entry_marks, embedded=segment.embedded,
    )
    assert len(blob) == len(pickle.dumps(bare, protocol=pickle.HIGHEST_PROTOCOL))
    _assert_rebuilds(pickle.loads(blob), segment)


class _CachePickler(pickle.Pickler):
    """Pickles segments the way they pickled while their state was the
    default one of a slotted dataclass: ``(None, slots)``, the caches
    included."""

    def reducer_override(self, obj):
        if type(obj) is not Segment:
            return NotImplemented
        slots = {f.name: getattr(obj, f.name) for f in fields(Segment)}
        del slots["_rows"]
        return copyreg.__newobj__, (Segment,), (None, slots)


def test_segment_loads_a_state_pickled_with_its_caches():
    segment = _cached_segment()
    out = io.BytesIO()
    _CachePickler(out, protocol=pickle.HIGHEST_PROTOCOL).dump(segment)
    _assert_rebuilds(pickle.loads(out.getvalue()), segment)


def test_cursor_overconsumption_rejected():
    cursor = TraceCursor(Trace((_segment(iters=2),)))
    with pytest.raises(SimulationError):
        cursor.consume(3.0)


def test_cursor_consume_after_finish_rejected():
    cursor = TraceCursor(Trace((_segment(iters=1),)))
    cursor.consume(1.0)
    with pytest.raises(SimulationError):
        cursor.consume(1.0)


def test_entry_flag_cleared_by_mark_handling():
    cursor = TraceCursor(Trace((_segment(),)))
    assert cursor.at_entry
    cursor.mark_entry_handled()
    assert not cursor.at_entry
    assert cursor.current is not None


def test_process_flow_and_stretch():
    machine = core2quad_amp()
    proc = SimProcess(
        1, "x", Trace((_segment(),)), machine.all_cores_mask,
        arrival=2.0, isolated_time=4.0,
    )
    assert proc.flow_time is None
    assert proc.stretch is None
    proc.completion = 10.0
    assert proc.flow_time == 8.0
    assert proc.stretch == 2.0


def test_process_stats_record():
    machine = core2quad_amp()
    proc = SimProcess(1, "x", Trace((_segment(),)), machine.all_cores_mask)
    proc.stats.record("fast", instrs=100.0, cycles=200.0)
    proc.stats.record("fast", instrs=50.0, cycles=100.0)
    proc.stats.record("slow", instrs=10.0, cycles=30.0)
    assert proc.stats.instructions == 160.0
    assert proc.stats.cycles_by_type == {"fast": 300.0, "slow": 30.0}
    assert proc.stats.instrs_by_type["slow"] == 10.0
