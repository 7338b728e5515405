"""Unit tests for the block cost model."""

import numpy as np
import pytest

from repro.isa import ProgramBuilder
from repro.program import build_cfg
from repro.sim import core2quad_amp
from repro.sim.core import CoreType
from repro.sim.cost_model import CostModel, CostVector, _ProcCostTable
from repro.sim.machine import FAST, SLOW
from repro.sim.memory import MemoryModel
from repro.workloads.spec import SPEC_BENCHMARKS, spec_benchmark


@pytest.fixture()
def model(machine):
    return CostModel(machine)


def _block(build, regions=(("BIG", 32 << 20), ("MID", 1 << 20))):
    pb = ProgramBuilder("t")
    for name, size in regions:
        pb.region(name, size)
    with pb.proc("main") as b:
        build(b)
        b.ret()
    program = pb.build()
    return build_cfg(program["main"]).blocks[0], program


def test_compute_block_frequency_invariant_cycles(model, machine):
    block, program = _block(
        lambda b: [b.fmul("f1", "f1", "f2") for _ in range(8)]
    )
    fast, slow = machine.core_types()
    cf = model.block_cost(block, fast, program)
    cs = model.block_cost(block, slow, program)
    assert cf.cycles == pytest.approx(cs.cycles)
    assert cf.stall_cycles == 0.0


def test_memory_block_stalls_more_on_fast_core(model, machine):
    def build(b):
        for _ in range(6):
            b.load("r1", "BIG", index="r2", stride=64)

    block, program = _block(build)
    fast, slow = machine.core_types()
    cf = model.block_cost(block, fast, program)
    cs = model.block_cost(block, slow, program)
    assert cf.stall_cycles > cs.stall_cycles
    assert cf.compute_cycles == cs.compute_cycles
    # IPC: the slow core wastes fewer cycles per memory instruction.
    assert cs.ipc > cf.ipc


def test_l2_resident_block_counts_l2_hits(model, machine):
    def build(b):
        for _ in range(4):
            b.load("r1", "MID", index="r2", stride=64)

    block, program = _block(build)
    fast = machine.core_types()[0]
    cost = model.block_cost(block, fast, program)
    assert cost.l2_hits == pytest.approx(4.0)


def test_ipc_scale_realistic(model, machine):
    """Pure ALU code reaches IPC ~2, FP code ~1 (DESIGN.md commitments)."""
    alu, program = _block(lambda b: [b.add("r1", "r1", 1) for _ in range(20)])
    fast = machine.core_types()[0]
    assert 1.5 <= model.block_cost(alu, fast, program).ipc <= 2.1


def test_block_cost_cached(model, machine):
    block, program = _block(lambda b: b.add("r1", "r1", 1))
    fast = machine.core_types()[0]
    first = model.block_cost(block, fast, program)
    assert model.block_cost(block, fast, program) is first


def test_block_vector_covers_all_types(model, machine):
    block, program = _block(lambda b: b.load("r1", "BIG", index="r2", stride=64))
    vector = model.block_vector(block, program)
    assert set(vector.compute) == {"fast", "slow"}
    assert vector.instrs == len(block.instrs)


# -- cost table vs scalar golden equality ---------------------------------------


class _ScalarMemory(MemoryModel):
    """Identical model, but its subclass type forces CostModel down the
    scalar per-instruction path (no _ProcCostTable)."""


def _all_blocks(program):
    for name in program.procedures:
        yield from build_cfg(program[name]).blocks


@pytest.mark.parametrize("bench", ["181.mcf", "164.gzip", "179.art"])
def test_vectorized_costs_match_scalar_reference(machine, bench):
    """The per-procedure cost table must reproduce the scalar
    per-instruction loop bit for bit, on every block of real programs."""
    program = spec_benchmark(bench).program
    vectorized = CostModel(machine)
    scalar = CostModel(machine, memory=_ScalarMemory())
    blocks = 0
    for block in _all_blocks(program):
        for ctype in machine.core_types():
            got = vectorized.block_cost(block, ctype, program)
            ref = scalar.block_cost(block, ctype, program)
            assert got.instrs == ref.instrs
            assert got.compute_cycles == ref.compute_cycles
            assert got.stall_cycles == ref.stall_cycles
            assert got.l2_hits == ref.l2_hits
            blocks += 1
    assert blocks > 0


def _array_columns(proc, program, ctype, memory):
    """(stall, l2_hits) columns as the array pipeline computed them
    before the cost table went scalar: the bit-identity oracle."""
    idx, stride, ws = [], [], []
    for i, instr in enumerate(proc.code):
        mem = instr.mem
        if mem is not None and mem.stride != 0:
            idx.append(i)
            stride.append(mem.stride)
            ws.append(program.region(mem.region).working_set)
    stride = np.asarray(stride, dtype=np.float64)
    ws = np.asarray(ws, dtype=np.int64)
    n = len(proc.code)
    stall = [0.0] * n
    l2h = [0.0] * n
    if idx:
        lines_per_exec = np.minimum(1.0, stride / ctype.line_size)
        l1 = np.where(ws > ctype.l1_bytes, lines_per_exec, 0.0)
        l2_misses = np.where(ws > ctype.l2_bytes, lines_per_exec, 0.0)
        l2_hits = l1 - l2_misses
        dram_cycles = memory.dram_latency_ns * ctype.freq_ghz
        stalls = l2_hits * memory.l2_hit_cycles + l2_misses * dram_cycles
        for i, st, l2 in zip(idx, stalls.tolist(), l2_hits.tolist()):
            stall[i] = st
            l2h[i] = l2
    return stall, l2h


#: The paper machine's core types plus odd ones (small caches, short
#: lines, a non-round clock) so every branch of the miss model is taken.
_COLUMN_CORE_TYPES = (
    FAST,
    SLOW,
    CoreType("small", freq_ghz=1.7, l1_kb=8, l2_kb=256, line_size=32),
    CoreType("wide", freq_ghz=3.3, l1_kb=64, l2_kb=1024, line_size=128),
)


@pytest.mark.parametrize("bench", SPEC_BENCHMARKS)
def test_cost_columns_match_array_reference(bench):
    program = spec_benchmark(bench).program
    memory = MemoryModel()
    strided = 0
    for proc in program:
        table = _ProcCostTable(proc, program)
        strided += len(table.strided)
        for ctype in _COLUMN_CORE_TYPES:
            assert table.columns(ctype, memory) == _array_columns(
                proc, program, ctype, memory
            ), (proc.name, ctype.name)
    assert strided > 0


def test_custom_memory_subclass_skips_table(machine):
    """A memory-model subclass may override the analytic formulas, so
    the table shortcut must not be consulted for it."""
    block, program = _block(lambda b: b.load("r1", "BIG", index="r2", stride=64))
    model = CostModel(machine, memory=_ScalarMemory())
    assert model._table_for(block, program) is None
    # The scalar path still produces a full cost.
    fast = machine.core_types()[0]
    assert model.block_cost(block, fast, program).stall_cycles > 0


def test_cost_vector_arithmetic(machine):
    core_types = machine.core_types()
    a = CostVector.zero(core_types)
    a.instrs = 10.0
    a.compute["fast"] = 5.0
    a.stall["fast"] = 5.0
    b = CostVector.zero(core_types)
    b.add(a, scale=2.0)
    assert b.instrs == 20.0
    assert b.cycles("fast") == 20.0
    scaled = b.scaled(0.5)
    assert scaled.cycles("fast") == 10.0
    assert b.cycles("fast") == 20.0  # Original untouched.
    assert a.stall_fraction("fast") == pytest.approx(0.5)
    assert CostVector.zero(core_types).stall_fraction("fast") == 0.0
