"""Per-block cycle costs and IPC per core type.

The executor runs at block/segment granularity, so every block's cost on
every core type is a pure function computed once: base issue cycles from
the instruction mix plus expected memory stall cycles from the analytic
miss model.  Costs are split into a compute part and a stall part so the
executor can apply L2-sharing contention to the stall part only.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from repro.isa.instructions import InstrClass
from repro.program.basic_block import BasicBlock
from repro.program.module import Program
from repro.sim.core import CoreType
from repro.sim.memory import MemoryModel

#: Base issue cycles per instruction class (frequency-invariant).
#: These are steady-state *throughput* costs on a superscalar pipeline
#: (not latencies): simple integer operations dual-issue, so pure ALU
#: code reaches IPC ~2, floating-point code ~1, in line with what SPEC
#: codes show on the Core 2 generation the paper measured.
BASE_CYCLES: dict[InstrClass, float] = {
    InstrClass.IALU: 0.5,
    InstrClass.IMUL: 1.5,
    InstrClass.IDIV: 8.0,
    InstrClass.FALU: 1.0,
    InstrClass.FMUL: 1.5,
    InstrClass.FDIV: 12.0,
    InstrClass.LOAD: 0.5,   # plus stalls from the memory model
    InstrClass.STORE: 0.5,
    InstrClass.STACK: 0.5,
    InstrClass.BRANCH: 0.75,  # includes average misprediction cost
    InstrClass.JUMP: 0.5,
    InstrClass.IJUMP: 1.0,
    InstrClass.CALL: 1.0,
    InstrClass.ICALL: 1.5,
    InstrClass.RET: 1.0,
    InstrClass.SYSCALL: 150.0,
    InstrClass.NOP: 0.25,
}


@dataclass(frozen=True)
class BlockCost:
    """Cost of one execution of a block on one core type.

    Attributes:
        instrs: instructions retired.
        compute_cycles: issue cycles (frequency-invariant).
        stall_cycles: expected memory stall cycles on this core type.
        l2_hits: expected L2-serviced accesses per execution — the
            working set that lives in the shared L2 and is exposed to
            pollution by a streaming co-runner.
    """

    instrs: int
    compute_cycles: float
    stall_cycles: float
    l2_hits: float = 0.0

    @property
    def cycles(self) -> float:
        return self.compute_cycles + self.stall_cycles

    @property
    def ipc(self) -> float:
        if self.cycles <= 0:
            return 0.0
        return self.instrs / self.cycles


@dataclass
class CostVector:
    """Aggregated cost over all core types of a machine.

    Attributes:
        instrs: instructions retired (core-type-invariant).
        compute: compute cycles (core-type-invariant in this model, but
            kept per type for generality).
        stall: stall cycles per core type name.
    """

    instrs: float
    compute: dict
    stall: dict
    l2hits: dict = None

    def __post_init__(self) -> None:
        if self.l2hits is None:
            self.l2hits = {name: 0.0 for name in self.compute}

    @classmethod
    def zero(cls, core_types) -> "CostVector":
        return cls(
            0.0,
            {ct.name: 0.0 for ct in core_types},
            {ct.name: 0.0 for ct in core_types},
            {ct.name: 0.0 for ct in core_types},
        )

    def add(self, other: "CostVector", scale: float = 1.0) -> None:
        """In-place ``self += scale * other``."""
        self.instrs += scale * other.instrs
        for name in self.compute:
            self.compute[name] += scale * other.compute[name]
            self.stall[name] += scale * other.stall[name]
            self.l2hits[name] += scale * other.l2hits[name]

    def add_block(self, cost: BlockCost, ctype_name: str, scale: float = 1.0) -> None:
        self.compute[ctype_name] += scale * cost.compute_cycles
        self.stall[ctype_name] += scale * cost.stall_cycles
        self.l2hits[ctype_name] += scale * cost.l2_hits

    def cycles(self, ctype_name: str) -> float:
        return self.compute[ctype_name] + self.stall[ctype_name]

    def scaled(self, factor: float) -> "CostVector":
        return CostVector(
            self.instrs * factor,
            {k: v * factor for k, v in self.compute.items()},
            {k: v * factor for k, v in self.stall.items()},
            {k: v * factor for k, v in self.l2hits.items()},
        )

    def stall_fraction(self, ctype_name: str) -> float:
        total = self.cycles(ctype_name)
        if total <= 0:
            return 0.0
        return self.stall[ctype_name] / total


class _ProcCostTable:
    """Per-instruction cost columns for one procedure.

    Built once per (cost model, program, procedure); per-core-type stall
    and L2-hit columns are filled in once over the procedure's strided
    memory accesses.  Block costs then reduce to slice sums over these
    columns.  Every element is computed with the same floating-point
    expression (and per-block accumulation order) as the scalar
    per-instruction loop, so the results are bit-identical.
    """

    __slots__ = ("code", "base", "strided", "_per_ctype")

    def __init__(self, proc, program: Program):
        code = proc.code
        self.code = code
        self.base = [BASE_CYCLES[instr.iclass] for instr in code]
        # stride-0 accesses contribute exactly 0.0 stall/L2 on every
        # core type (scalar stays resident), so only strided streams
        # get column entries: (instruction index, stride, working set).
        self.strided = [
            (i, instr.mem.stride, program.region(instr.mem.region).working_set)
            for i, instr in enumerate(code)
            if instr.mem is not None and instr.mem.stride != 0
        ]
        self._per_ctype: dict = {}

    def columns(self, ctype: CoreType, memory: MemoryModel):
        """(stall, l2_hits) per-instruction columns for *ctype*."""
        got = self._per_ctype.get(ctype.name)
        if got is not None:
            return got
        n = len(self.base)
        stall = [0.0] * n
        l2h = [0.0] * n
        # Same expressions as MemoryModel.miss_profile/stall_cycles.
        line_size = ctype.line_size
        l1_bytes, l2_bytes = ctype.l1_bytes, ctype.l2_bytes
        l2_hit_cycles = memory.l2_hit_cycles
        dram_cycles = memory.dram_latency_ns * ctype.freq_ghz
        for i, stride, ws in self.strided:
            lines_per_exec = min(1.0, stride / line_size)
            l1 = lines_per_exec if ws > l1_bytes else 0.0
            l2_misses = lines_per_exec if ws > l2_bytes else 0.0
            l2_hits = l1 - l2_misses
            stall[i] = l2_hits * l2_hit_cycles + l2_misses * dram_cycles
            l2h[i] = l2_hits
        pair = (stall, l2h)
        self._per_ctype[ctype.name] = pair
        return pair


class _ProgramCosts:
    """One program's memoized costs under one cost model: procedure cost
    tables by procedure name, block costs by ``(block uid, core type)``
    and block cost vectors by block uid."""

    __slots__ = ("tables", "blocks", "vectors")

    def __init__(self) -> None:
        self.tables: dict = {}
        self.blocks: dict = {}
        self.vectors: dict = {}


class CostModel:
    """Computes block costs for the core types of one machine.

    Costs are memoized per program, keyed weakly on the program object:
    one model can serve any number of programs (a pipeline cache shares
    one per machine), and a dropped program's costs go with it instead
    of being served to a new program that reuses its address.
    """

    def __init__(self, machine, memory: MemoryModel = None):
        self.machine = machine
        self.memory = memory or MemoryModel()
        self._programs: "weakref.WeakKeyDictionary[Program, _ProgramCosts]" = (
            weakref.WeakKeyDictionary()
        )

    def _costs_of(self, program: Program) -> _ProgramCosts:
        memo = self._programs.get(program)
        if memo is None:
            memo = self._programs[program] = _ProgramCosts()
        return memo

    def _table_for(
        self,
        block: BasicBlock,
        program: Program,
        memo: Optional[_ProgramCosts] = None,
    ):
        """The procedure cost table covering *block*, or ``None``.

        Falls back to ``None`` (scalar path) when the block's instruction
        objects are not a slice of the program's procedure code — e.g.
        synthetic blocks built directly in tests — or when a custom
        memory model subclass overrides the analytic formulas.
        """
        if type(self.memory) is not MemoryModel:
            return None
        if memo is None:
            memo = self._costs_of(program)
        tables = memo.tables
        table = tables.get(block.proc, False)
        if table is False:
            proc = program.procedures.get(block.proc)
            table = _ProcCostTable(proc, program) if proc is not None else None
            tables[block.proc] = table
        if table is None:
            return None
        code = table.code
        start, end = block.start, block.end
        instrs = block.instrs
        if not instrs or end > len(code):
            return None
        # O(1) identity check that the block really is code[start:end].
        if instrs[0] is not code[start] or instrs[-1] is not code[end - 1]:
            return None
        return table

    def block_cost(
        self, block: BasicBlock, ctype: CoreType, program: Program
    ) -> BlockCost:
        """Cost of one execution of *block* on a *ctype* core."""
        return self._block_cost(block, ctype, program, self._costs_of(program))

    def _block_cost(
        self,
        block: BasicBlock,
        ctype: CoreType,
        program: Program,
        memo: _ProgramCosts,
    ) -> BlockCost:
        key = (block.uid, ctype.name)
        cached = memo.blocks.get(key)
        if cached is not None:
            return cached

        table = self._table_for(block, program, memo)
        if table is not None:
            stall_col, l2_col = table.columns(ctype, self.memory)
            start, end = block.start, block.end
            # Built-in sum() accumulates left to right — the same order
            # (and therefore the same rounding) as the scalar loop.
            cost = BlockCost(
                len(block.instrs),
                sum(table.base[start:end]),
                sum(stall_col[start:end]),
                sum(l2_col[start:end]),
            )
        else:
            compute = 0.0
            stall = 0.0
            l2_hits = 0.0
            for instr in block.instrs:
                compute += BASE_CYCLES[instr.iclass]
                if instr.mem is not None:
                    stall += self.memory.stall_cycles(instr.mem, program, ctype)
                    profile = self.memory.miss_profile(instr.mem, program, ctype)
                    l2_hits += profile.l2_hits
            cost = BlockCost(len(block.instrs), compute, stall, l2_hits)
        memo.blocks[key] = cost
        return cost

    def block_ipc(
        self, block: BasicBlock, ctype: CoreType, program: Program
    ) -> float:
        """Steady-state IPC of *block* on a *ctype* core, uncontended."""
        return self.block_cost(block, ctype, program).ipc

    def block_vector(self, block: BasicBlock, program: Program) -> CostVector:
        """The block's cost on every core type of the machine.

        Memoized like the block costs: callers treat the vector as
        read-only and only ever ``add`` it into their own totals.
        """
        memo = self._costs_of(program)
        vector = memo.vectors.get(block.uid)
        if vector is not None:
            return vector
        core_types = self.machine.core_types()
        vector = CostVector.zero(core_types)
        vector.instrs = float(len(block.instrs))
        for ctype in core_types:
            cost = self._block_cost(block, ctype, program, memo)
            vector.compute[ctype.name] = cost.compute_cycles
            vector.stall[ctype.name] = cost.stall_cycles
            vector.l2hits[ctype.name] = cost.l2_hits
        memo.vectors[block.uid] = vector
        return vector
