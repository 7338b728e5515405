"""Unit tests for the binary rewriter."""

import pytest

from repro.instrument import (
    BBStrategy,
    IntervalStrategy,
    LoopStrategy,
    instrument,
)
from repro.instrument.phase_mark import MARK_DATA_BYTES
from repro.isa.instructions import Opcode
from repro.program import build_cfg, validate_program


def test_instrument_indexes_marks(phased_program):
    program, _ = phased_program
    inst = instrument(program, LoopStrategy(20))
    assert inst.marks
    edges, _ = inst.mark_indices()
    for mark in inst.marks:
        for src, dst in mark.point.trigger_edges:
            assert edges[mark.point.proc, src, dst] is mark


def test_mark_ids_dense(phased_program):
    program, _ = phased_program
    inst = instrument(program, LoopStrategy(20))
    assert [m.mark_id for m in inst.marks] == list(range(len(inst.marks)))


def test_space_overhead_positive(phased_program):
    program, _ = phased_program
    inst = instrument(program, LoopStrategy(20))
    assert inst.added_bytes == sum(m.total_bytes for m in inst.marks)
    assert inst.space_overhead > 0


def test_no_marks_no_overhead(straightline_program):
    inst = instrument(straightline_program, LoopStrategy(45))
    assert inst.marks == []
    assert inst.space_overhead == 0.0


def test_materialized_program_validates(phased_program):
    program, _ = phased_program
    for strategy in (BBStrategy(10, 0), IntervalStrategy(20), LoopStrategy(20)):
        inst = instrument(program, strategy)
        tuned = inst.materialize()
        assert validate_program(tuned) == []


def test_materialized_size_matches_accounting(phased_program):
    """Physical code growth equals the accounted bytes minus data
    (descriptor data is not text-segment code)."""
    program, _ = phased_program
    inst = instrument(program, LoopStrategy(20))
    tuned = inst.materialize()
    code_growth = tuned.size_bytes - program.size_bytes
    accounted_code = inst.added_bytes - MARK_DATA_BYTES * len(inst.marks)
    assert code_growth == accounted_code


def test_materialized_contains_trampolines(phased_program):
    program, _ = phased_program
    inst = instrument(program, LoopStrategy(20))
    tuned = inst.materialize()
    main = tuned["main"]
    sys_marks = [
        i for i in main.code
        if i.opcode is Opcode.SYS and i.operands[0] == 0x20
    ]
    assert len(sys_marks) == len(
        [m for m in inst.marks if m.point.proc == "main"]
    )


def test_materialized_preserves_block_count(phased_program):
    """Original blocks survive; only trampolines are added."""
    program, _ = phased_program
    inst = instrument(program, LoopStrategy(20))
    tuned = inst.materialize()
    original_cfg = build_cfg(program["main"])
    tuned_cfg = build_cfg(tuned["main"])
    assert len(tuned_cfg) >= len(original_cfg)


def test_instrument_with_precomputed_typing(phased_program):
    from repro.analysis import StaticBlockTyper, inject_clustering_error

    program, _ = phased_program
    typing = StaticBlockTyper().type_blocks(program)
    flipped = inject_clustering_error(typing, 1.0)
    a = instrument(program, LoopStrategy(20), typing=typing)
    b = instrument(program, LoopStrategy(20), typing=flipped)
    # Same sections marked, opposite announced types.
    types_a = {m.point.uid: m.phase_type for m in a.marks}
    types_b = {m.point.uid: m.phase_type for m in b.marks}
    assert set(types_a) == set(types_b)
    assert all(types_a[u] == 1 - types_b[u] for u in types_a)


def test_entry_mark_indexed():
    from repro.isa import ProgramBuilder

    pb = ProgramBuilder("t")
    pb.region("BIG", 32 << 20)
    with pb.proc("main") as b:
        # A sized memory loop right at the procedure entry.
        b.label("loop")
        for _ in range(12):
            b.load("r1", "BIG", index="r2", stride=64)
            b.add("r3", "r3", "r1")
        b.add("r2", "r2", 1)
        b.cmp("r2", 100)
        b.br("lt", "loop")
        b.ret()
    program = pb.build()
    inst = instrument(program, BBStrategy(10, 0))
    _, entries = inst.mark_indices()
    assert entries.get("main") is not None


def _branch_to_adjacent_program():
    """``main``: block 0 ends in a conditional branch whose explicit
    target is block 1, the block it also falls through to."""
    from repro.isa import ProgramBuilder

    pb = ProgramBuilder("adjacent")
    with pb.proc("main") as b:
        b.movi("r1", 0)
        b.cmp("r1", 1)
        b.br("lt", "next")
        b.label("next")
        b.add("r1", "r1", 1)
        b.ret()
    return pb.build()


def test_branch_to_adjacent_block_needs_no_stub():
    """The edge is reached by retargeting the branch, so it is not a
    fall-through edge, whether or not marks were ever built for it."""
    from repro.instrument.rewriter import _is_fallthrough_edge

    program = _branch_to_adjacent_program()
    proc = program["main"]
    cfg = build_cfg(proc)
    assert cfg.blocks[0].instrs[-1].opcode is Opcode.BR
    assert proc.labels["next"] == cfg.blocks[1].start
    assert not _is_fallthrough_edge(cfg, proc.labels, 0, 1)


def test_materialize_agrees_with_accounting_without_build_marks():
    """``materialize`` reads the procedure's labels itself: an
    instrumented program whose marks were never built in this process
    (e.g. loaded from a persistent tier) rewrites exactly as accounted."""
    from repro.analysis import StaticBlockTyper
    from repro.analysis.annotate import annotate_program
    from repro.analysis.transitions import TransitionPoint
    from repro.instrument.phase_mark import PhaseMark
    from repro.instrument.rewriter import InstrumentedProgram, build_marks

    program = _branch_to_adjacent_program()
    aprog = annotate_program(program, StaticBlockTyper().type_blocks(program))
    size = len(aprog.cfgs["main"].blocks[1].instrs)
    point = TransitionPoint("main", "bb", 0, 1, frozenset({1}), size, ((0, 1),))
    mark = PhaseMark(0, point, fallthrough_edges=0, saves=())
    inst = InstrumentedProgram(program, aprog, "manual", [mark])
    tuned = inst.materialize()
    assert validate_program(tuned) == []
    code_growth = tuned.size_bytes - program.size_bytes
    assert code_growth == inst.added_bytes - MARK_DATA_BYTES
    # build_marks classifies the edge the same way afterwards.
    assert build_marks(aprog, [point])[0].fallthrough_edges == 0
