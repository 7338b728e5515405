"""The binary rewriter: splice phase marks into programs.

:func:`instrument` runs the whole static half of phase-based tuning in
one call — block typing, transition analysis for the chosen strategy,
mark construction — and returns an :class:`InstrumentedProgram` that

* knows the exact byte overhead of every mark (Figure 3),
* indexes marks by trigger edge and procedure entry for the simulator's
  trace generator, and
* can ``materialize()`` a physically rewritten
  :class:`~repro.program.module.Program` in which every mark is a real
  trampoline reachable from its retargeted branches and jump stubs — the
  analogue of what the paper's Binutils-based framework emits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import MutableMapping, Optional

from repro.errors import InstrumentationError
from repro.isa.encoding import code_size
from repro.isa.instructions import Instruction, Opcode
from repro.program.cfg import CFG
from repro.program.module import Procedure, Program
from repro.analysis.annotate import AttributedProgram, annotate_program
from repro.analysis.block_typing import BlockTyping, StaticBlockTyper
from repro.analysis.liveness import compute_liveness
from repro.analysis.transitions import TransitionPoint
from repro.instrument.marker import MarkingStrategy
from repro.instrument.phase_mark import (
    CLOBBERED_REGISTERS,
    INLINE_JUMP_BYTES,
    MARK_DATA_BYTES,
    PhaseMark,
    mark_trampoline,
)


def _is_fallthrough_edge(cfg: CFG, labels: dict, src: int, dst: int) -> bool:
    """True if edge (src, dst) exists only by block adjacency, so an
    inline jump stub is needed to divert it through a trampoline.

    *labels* is the label table of the procedure *cfg* was built from.
    """
    src_block = cfg.blocks[src]
    last = src_block.instrs[-1]
    target = last.label_target
    if target is not None and labels.get(target) == cfg.blocks[dst].start:
        # The explicit target lands on dst: the branch can be retargeted
        # for free.
        return False
    if last.opcode is Opcode.JMP:
        return False  # Direct jump: always retargetable.
    return dst == src + 1


def live_scratch_registers(cfg: CFG) -> list[tuple]:
    """Per block of *cfg*, the clobbered scratch registers live at its
    entry: what a mark guarding that block must save (Section III)."""
    return [
        tuple(r for r in CLOBBERED_REGISTERS if r in live)
        for live in compute_liveness(cfg).live_in
    ]


@dataclass
class InstrumentedProgram:
    """A program plus its phase marks.

    Trace generation consumes the logical index (``mark_indices``);
    tests and the overhead experiments consume the byte accounting and
    the ``materialize()`` output.
    """

    program: Program
    aprog: AttributedProgram
    strategy_name: str
    marks: list[PhaseMark]
    _edge_index: dict = field(default_factory=dict)
    _entry_index: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for mark in self.marks:
            point = mark.point
            for edge in point.trigger_edges:
                self._edge_index[(point.proc, edge[0], edge[1])] = mark
            if point.at_proc_entry:
                self._entry_index[point.proc] = mark

    @property
    def typing(self) -> BlockTyping:
        return self.aprog.typing

    def mark_indices(self) -> tuple:
        """``({(proc, src, dst): mark}, {proc: mark})``: the mark
        triggered by traversing each marked CFG edge, and the mark fired
        on entering each marked procedure.  Callers treat them as
        read-only."""
        return self._edge_index, self._entry_index

    def placement(self) -> tuple:
        """Where the marks sit, as trace generation reads them: every
        trigger edge and procedure entry with its mark's id and phase
        type.  Techniques that place the same marks yield equal
        placements and therefore equal traces."""
        return (
            tuple(
                sorted(
                    (edge, mark.mark_id, mark.phase_type)
                    for edge, mark in self._edge_index.items()
                )
            ),
            tuple(
                sorted(
                    (proc, mark.mark_id, mark.phase_type)
                    for proc, mark in self._entry_index.items()
                )
            ),
        )

    # -- overhead accounting (Figure 3) ------------------------------------

    @property
    def added_bytes(self) -> int:
        """Total bytes of mark code and data added to the binary."""
        return sum(mark.total_bytes for mark in self.marks)

    @cached_property
    def original_bytes(self) -> int:
        return self.program.size_bytes + MARK_DATA_BYTES  # headers etc.

    @property
    def space_overhead(self) -> float:
        """Fractional size increase over the original binary."""
        return self.added_bytes / self.program.size_bytes

    def __repr__(self) -> str:
        return (
            f"InstrumentedProgram({self.program.name!r}, "
            f"{self.strategy_name}, {len(self.marks)} marks, "
            f"+{self.added_bytes}B / {self.space_overhead:.2%})"
        )

    # -- physical rewriting -------------------------------------------------

    def materialize(self) -> Program:
        """Produce a physically rewritten program with real trampolines.

        Every marked edge is diverted through its mark's trampoline:
        explicit branches are retargeted; fall-through edges get an
        inline jump stub.  Procedure-entry marks are inlined before the
        first instruction.  The result validates and has the same
        observable control flow (trampolines always return to the
        section entry they guard).
        """
        new_procs: dict[str, Procedure] = {}
        for proc in self.program:
            new_procs[proc.name] = self._materialize_proc(proc)
        return Program(
            new_procs,
            entry=self.program.entry,
            regions=dict(self.program.regions),
            name=self.program.name + ".tuned",
        )

    def _materialize_proc(self, proc: Procedure) -> Procedure:
        cfg = self.aprog.cfgs[proc.name]
        block_label = {b.index: f".B{b.index}" for b in cfg.blocks}
        start_to_block = {b.start: b.index for b in cfg.blocks}

        proc_marks = [m for m in self.marks if m.point.proc == proc.name]
        tramp_label = {m.mark_id: f".PM{m.mark_id}" for m in proc_marks}

        code: list[Instruction] = []
        labels: dict[str, int] = {}

        def place(label: str) -> None:
            if label in labels:
                raise InstrumentationError(
                    f"duplicate label {label!r} while rewriting {proc.name!r}"
                )
            labels[label] = len(code)

        entry = self._entry_index.get(proc.name)
        for block in cfg.blocks:
            place(block_label[block.index])
            if entry is not None and block.index == 0:
                # Inline entry mark: trampoline body minus the back jump.
                code.extend(
                    mark_trampoline(
                        entry.mark_id, entry.phase_type, "x", entry.saves
                    )[:-1]
                )
            body = block.instrs
            for instr in body[:-1]:
                code.append(instr)
            last = body[-1]
            code.append(self._rewrite_terminator(proc, cfg, block, last, tramp_label, block_label))
            # Fall-through handling.
            fall_dst = self._fallthrough_successor(cfg, block)
            if fall_dst is not None:
                mark = self._edge_index.get((proc.name, block.index, fall_dst))
                if mark is not None and _is_fallthrough_edge(
                    cfg, proc.labels, block.index, fall_dst
                ):
                    code.append(
                        Instruction(Opcode.JMP, (tramp_label[mark.mark_id],))
                    )

        for mark in proc_marks:
            if not mark.point.trigger_edges:
                continue
            place(tramp_label[mark.mark_id])
            back = block_label[mark.point.entry_block]
            code.extend(
                mark_trampoline(mark.mark_id, mark.phase_type, back, mark.saves)
            )

        del start_to_block  # only used implicitly via block bounds
        return Procedure(proc.name, code, labels)

    def _rewrite_terminator(
        self,
        proc: Procedure,
        cfg: CFG,
        block,
        last: Instruction,
        tramp_label: dict,
        block_label: dict,
    ) -> Instruction:
        """Retarget a block's final instruction to block/trampoline labels."""
        target = last.label_target
        if target is None:
            return last
        dst_start = proc.resolve(target)
        dst = next(
            (b.index for b in cfg.blocks if b.start == dst_start), None
        )
        if dst is None:
            raise InstrumentationError(
                f"branch target {target!r} in {proc.name!r} is not a leader"
            )
        mark = self._edge_index.get((proc.name, block.index, dst))
        new_target = (
            tramp_label[mark.mark_id] if mark is not None else block_label[dst]
        )
        if last.opcode is Opcode.JMP:
            return Instruction(Opcode.JMP, (new_target,))
        return Instruction(Opcode.BR, (last.operands[0], new_target))

    @staticmethod
    def _fallthrough_successor(cfg: CFG, block) -> Optional[int]:
        """The adjacency successor of *block*, if control can fall through."""
        last = block.instrs[-1]
        if last.is_terminator:
            return None
        nxt = block.index + 1
        if nxt >= len(cfg.blocks):
            return None
        return nxt


def build_marks(
    aprog: AttributedProgram,
    points: list[TransitionPoint],
    live_scratch: Optional[MutableMapping] = None,
) -> list[PhaseMark]:
    """Turn transition points into phase marks with byte accounting.

    Applies Section III's live-register analysis: a mark saves only the
    clobbered scratch registers that are live at the section entry it
    guards, shrinking the trampoline.

    Args:
        live_scratch: memo of :func:`live_scratch_registers` keyed by
            CFG.  Liveness depends on the CFG alone, not on the
            technique, so a caller marking one program for many
            techniques passes one memo to all of them; a private one is
            used when omitted.
    """
    if live_scratch is None:
        live_scratch = {}
    marks = []
    for mark_id, point in enumerate(sorted(points, key=lambda p: p.uid)):
        cfg = aprog.cfgs[point.proc]
        labels = aprog.program[point.proc].labels
        fallthrough = sum(
            1
            for (src, dst) in point.trigger_edges
            if _is_fallthrough_edge(cfg, labels, src, dst)
        )
        saves_by_block = live_scratch.get(cfg)
        if saves_by_block is None:
            saves_by_block = live_scratch[cfg] = live_scratch_registers(cfg)
        saves = saves_by_block[point.entry_block]
        marks.append(PhaseMark(mark_id, point, fallthrough, saves))
    return marks


def instrument(
    program: Program,
    strategy: MarkingStrategy,
    typing: Optional[BlockTyping] = None,
    typer: Optional[object] = None,
    aprog: Optional[AttributedProgram] = None,
) -> InstrumentedProgram:
    """Run the full static pipeline and return the instrumented program.

    Args:
        program: the binary to tune.
        strategy: sectioning technique, e.g. ``LoopStrategy(45)``.
        typing: a pre-computed block typing (e.g. with injected error).
        typer: used to compute a typing when none is given; defaults to
            :class:`~repro.analysis.block_typing.StaticBlockTyper`.
        aprog: reuse a pre-annotated program (must match *typing*).
    """
    if aprog is None:
        if typing is None:
            typer = typer or StaticBlockTyper()
            typing = typer.type_blocks(program)
        aprog = annotate_program(program, typing)
    points = strategy.compute_points(aprog)
    marks = build_marks(aprog, points)
    return InstrumentedProgram(program, aprog, strategy.name, marks)
