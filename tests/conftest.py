"""Shared fixtures: canonical programs and machines used across tests."""

from __future__ import annotations

import pytest

from repro.isa import ProgramBuilder, assemble
from repro.sim import core2quad_amp
from repro.sim.tracegen import BehaviorSpec


@pytest.fixture(scope="session")
def machine():
    """The paper's 4-core AMP."""
    return core2quad_amp()


@pytest.fixture()
def straightline_program():
    """A single-block program: movi/add/ret."""
    pb = ProgramBuilder("straight")
    with pb.proc("main") as b:
        b.movi("r1", 1)
        b.add("r2", "r1", 2)
        b.ret()
    return pb.build()


@pytest.fixture()
def loop_program():
    """One counted loop plus a tail."""
    source = """
    .program looped
    .region A 1048576
    .proc main
        movi r1, 0
        movi r2, 10
    loop:
        load r3, A[r1]:8
        add r4, r4, r3
        add r1, r1, 1
        cmp r1, r2
        br lt, loop
        ret
    .endproc
    """
    return assemble(source)


@pytest.fixture()
def diamond_program():
    """If/else diamond followed by a join."""
    source = """
    .proc main
        cmp r1, 5
        br ge, big
        movi r2, 1
        jmp join
    big:
        movi r2, 2
    join:
        add r3, r2, 1
        ret
    .endproc
    """
    return assemble(source)


@pytest.fixture()
def nested_loop_program():
    """Two-level nest: outer loop containing an inner loop."""
    source = """
    .region A 33554432
    .proc main
        movi r1, 0
    outer:
        movi r2, 0
    inner:
        load r3, A[r2]:64
        add r3, r3, 1
        add r2, r2, 1
        cmp r2, 100
        br lt, inner
        add r1, r1, 1
        cmp r1, 10
        br lt, outer
        ret
    .endproc
    """
    return assemble(source)


@pytest.fixture()
def call_program():
    """main calls helper inside a loop; helper has its own loop."""
    source = """
    .region A 33554432
    .proc main
        movi r1, 0
    outer:
        call helper
        add r1, r1, 1
        cmp r1, 5
        br lt, outer
        ret
    .endproc
    .proc helper
        movi r2, 0
    hloop:
        load r3, A[r2]:64
        add r2, r2, 1
        cmp r2, 50
        br lt, hloop
        ret
    .endproc
    """
    return assemble(source)


def make_phased_program(
    name: str = "phased",
    compute_iters: int = 1000,
    memory_iters: int = 1000,
    outer: int = 10,
):
    """A two-phase benchmark used by simulator and tuning tests.

    Returns (program, behavior_spec): an outer loop alternating a
    compute-bound phase (fp-heavy, 48-instruction body) and a
    memory-bound phase (streaming loads/stores, 51-instruction body).
    """
    pb = ProgramBuilder(name)
    pb.region("BIG", 32 << 20)
    with pb.proc("main") as b:
        b.movi("r1", 0)
        b.movi("r2", outer)
        b.label("outer")
        b.movi("r3", 0)
        b.label("cloop")
        for _ in range(15):
            b.fmul("f1", "f1", "f2")
            b.fadd("f2", "f2", "f1")
        for _ in range(15):
            b.xor("r10", "r10", "r4")
        b.add("r3", "r3", 1)
        b.cmp("r3", compute_iters)
        b.br("lt", "cloop")
        b.movi("r5", 0)
        b.label("mloop")
        for _ in range(12):
            b.load("r6", "BIG", index="r5", stride=4)
            b.add("r6", "r6", 1)
        for _ in range(12):
            b.store("BIG", "r6", index="r5", stride=4)
        b.add("r5", "r5", 1)
        b.cmp("r5", memory_iters)
        b.br("lt", "mloop")
        b.add("r1", "r1", 1)
        b.cmp("r1", "r2")
        b.br("lt", "outer")
        b.ret()
    spec = BehaviorSpec(
        trip_counts={
            ("main", "outer"): outer,
            ("main", "cloop"): compute_iters,
            ("main", "mloop"): memory_iters,
        }
    )
    return pb.build(), spec


@pytest.fixture()
def phased_program():
    return make_phased_program()


def make_recursive_program(name: str = "recursive", iters: int = 400):
    """A benchmark whose phases sit in a recursive call cycle.

    Returns (program, behavior_spec): ``main`` loops over ``walk``, and
    ``walk`` (a compute-bound loop) and ``visit`` (a memory-bound loop)
    call each other, so trace generation unrolls their call graph SCC
    for ``recursion_depth`` rounds.
    """
    pb = ProgramBuilder(name)
    pb.region("BIG", 32 << 20)
    with pb.proc("main") as b:
        b.movi("r1", 0)
        b.label("outer")
        b.call("walk")
        b.add("r1", "r1", 1)
        b.cmp("r1", 6)
        b.br("lt", "outer")
        b.ret()
    with pb.proc("walk") as b:
        b.movi("r3", 0)
        b.label("cloop")
        for _ in range(15):
            b.fmul("f1", "f1", "f2")
            b.fadd("f2", "f2", "f1")
        b.add("r3", "r3", 1)
        b.cmp("r3", iters)
        b.br("lt", "cloop")
        b.cmp("r1", 0)
        b.br("le", "done")
        b.call("visit")
        b.label("done")
        b.ret()
    with pb.proc("visit") as b:
        b.movi("r5", 0)
        b.label("mloop")
        for _ in range(12):
            b.load("r6", "BIG", index="r5", stride=64)
            b.store("BIG", "r6", index="r5", stride=64)
        b.add("r5", "r5", 1)
        b.cmp("r5", iters)
        b.br("lt", "mloop")
        b.call("walk")
        b.ret()
    spec = BehaviorSpec(
        trip_counts={
            ("main", "outer"): 6,
            ("walk", "cloop"): iters,
            ("visit", "mloop"): iters,
        },
        recursion_depth=3,
    )
    return pb.build(), spec


def make_corner_program(name: str = "corners", chain: int = 28):
    """A benchmark that reaches three corners of trace generation.

    Returns (program, behavior_spec).  ``main``'s own scope holds:

    * two folded groups with L2 hits, one before the loop and one
      after it, so emitting the second starts from a flushed cost;
    * a loop whose header has two predecessors outside it (a branch
      and its fall-through), so one mark on all edges into the header
      sits on two entry edges;
    * a block reached with frequency ``2**-29``, at the end of a chain
      of *chain* halving branches, from two predecessors, so the rate
      of a mark on its edges is at or below ``_EPS``.
    """
    pb = ProgramBuilder(name)
    pb.region("MID", 1 << 20)
    with pb.proc("main") as b:
        b.movi("r1", 0)
        for _ in range(8):
            b.load("r6", "MID", index="r1", stride=64)
            b.add("r6", "r6", 1)
        b.cmp("r1", 1)
        b.br("lt", "head")
        b.add("r2", "r2", 1)
        b.label("head")
        for _ in range(6):
            b.fmul("f1", "f1", "f2")
        b.add("r1", "r1", 1)
        b.cmp("r1", 50)
        b.br("lt", "head")
        for _ in range(8):
            b.load("r6", "MID", index="r1", stride=64)
            b.store("MID", "r6", index="r1", stride=64)
        for i in range(chain):
            b.cmp("r3", i)
            b.br("eq", "tail")
        b.cmp("r4", 0)
        b.br("lt", "second")
        b.cmp("r4", 1)
        b.br("lt", "tail")
        b.label("join")
        b.add("r7", "r7", 1)
        b.jmp("tail")
        b.label("second")
        b.cmp("r4", 2)
        b.br("lt", "join")
        b.jmp("tail")
        b.label("tail")
        b.add("r8", "r8", 1)
        b.ret()
    spec = BehaviorSpec(trip_counts={("main", "head"): 50})
    return pb.build(), spec
