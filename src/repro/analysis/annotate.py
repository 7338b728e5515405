"""Attributed control-flow graphs: ``B̄ ⊆ B × Π``.

An :class:`AttributedCFG` bundles one procedure's CFG with the phase type
of each node; an :class:`AttributedProgram` holds one per procedure plus
the shared :class:`~repro.analysis.block_typing.BlockTyping` — everything
downstream passes (summarization, transition marking, instrumentation)
need.  Its intervals, loops, call graph and summaries come from a
:class:`StaticAnalyses` memo, which computes each once per program (or
CFG) and typing however many techniques read it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Optional

from repro.program.basic_block import BasicBlock
from repro.program.callgraph import CallGraph, build_callgraph
from repro.program.cfg import CFG
from repro.program.intervals import Interval, partition_intervals
from repro.program.loops import Loop, find_loops
from repro.program.module import Program
from repro.analysis.block_typing import BlockTyping, build_all_cfgs
from repro.analysis.interval_summary import IntervalSummary, summarize_intervals
from repro.analysis.loop_summary import LoopSummary, summarize_loops
from repro.analysis.transitions import TransitionPoint, basic_block_sections


class StaticAnalyses:
    """The static analyses every marking technique of a program shares.

    Table 2's techniques differ only in size thresholds and lookahead,
    so each of these is computed once and every technique filters it:

    * per procedure CFG: its intervals and natural loops;
    * per program: its call graph;
    * per (procedure CFG, typing): the interval summary;
    * per (program, typing): the loop summary (Algorithm 1);
    * per (program, typing, min size): the basic-block sections, before
      the lookahead filter.

    :class:`~repro.tuning.pipeline.PipelineCache` owns one (through its
    :class:`~repro.sim.tracegen.AnalysisMemo`) and annotates every
    program with it; an :class:`AttributedProgram` made without one gets
    a private memo that dies with it.  Products are keyed weakly on the
    CFG or program object and by the typing's fingerprint, and hold
    neither, so they go with the program.  Callers treat them as
    read-only.  A memo pickles as a new empty one: its products are
    never persisted or shipped.
    """

    def __init__(self) -> None:
        self._loops: "weakref.WeakKeyDictionary[CFG, list]" = (
            weakref.WeakKeyDictionary()
        )
        self._intervals: "weakref.WeakKeyDictionary[CFG, list]" = (
            weakref.WeakKeyDictionary()
        )
        self._callgraphs: "weakref.WeakKeyDictionary[Program, CallGraph]" = (
            weakref.WeakKeyDictionary()
        )
        self._interval_summaries: "weakref.WeakKeyDictionary[CFG, dict]" = (
            weakref.WeakKeyDictionary()
        )
        self._loop_summaries: "weakref.WeakKeyDictionary[Program, dict]" = (
            weakref.WeakKeyDictionary()
        )
        self._bb_sections: "weakref.WeakKeyDictionary[Program, dict]" = (
            weakref.WeakKeyDictionary()
        )

    def __reduce__(self):
        return (StaticAnalyses, ())

    def loops(self, cfg: CFG) -> list[Loop]:
        """:func:`~repro.program.loops.find_loops` of *cfg*."""
        loops = self._loops.get(cfg)
        if loops is None:
            loops = self._loops[cfg] = find_loops(cfg)
        return loops

    def intervals(self, cfg: CFG) -> list[Interval]:
        """:func:`~repro.program.intervals.partition_intervals` of *cfg*."""
        intervals = self._intervals.get(cfg)
        if intervals is None:
            intervals = self._intervals[cfg] = partition_intervals(cfg)
        return intervals

    def callgraph(self, program: Program) -> CallGraph:
        """The call graph of *program* over its procedures' CFGs."""
        callgraph = self._callgraphs.get(program)
        if callgraph is None:
            callgraph = self._callgraphs[program] = build_callgraph(program)
        return callgraph

    def interval_summary(self, acfg: "AttributedCFG") -> IntervalSummary:
        """:func:`~repro.analysis.interval_summary.summarize_intervals`
        of *acfg*, once per CFG and typing."""
        return _product(
            self._interval_summaries,
            acfg.cfg,
            acfg.typing.fingerprint,
            lambda: summarize_intervals(acfg),
        )

    def loop_summary(self, aprog: "AttributedProgram") -> LoopSummary:
        """:func:`~repro.analysis.loop_summary.summarize_loops` of
        *aprog*, once per program and typing."""
        return _product(
            self._loop_summaries,
            aprog.program,
            aprog.typing.fingerprint,
            lambda: summarize_loops(aprog),
        )

    def bb_sections(
        self, aprog: "AttributedProgram", min_size: int
    ) -> tuple[TransitionPoint, ...]:
        """:func:`~repro.analysis.transitions.basic_block_sections` of
        *aprog*, once per program, typing and *min_size*."""
        return _product(
            self._bb_sections,
            aprog.program,
            (aprog.typing.fingerprint, min_size),
            lambda: basic_block_sections(aprog, min_size),
        )


def _product(table: weakref.WeakKeyDictionary, owner, key, build):
    """``table[owner][key]``, built by ``build()`` on first use."""
    products = table.get(owner)
    if products is None:
        products = table[owner] = {}
    value = products.get(key)
    if value is None:
        value = products[key] = build()
    return value


@dataclass
class AttributedCFG:
    """One procedure's CFG together with node phase types."""

    cfg: CFG
    typing: BlockTyping
    analyses: StaticAnalyses = field(
        default_factory=StaticAnalyses, repr=False, compare=False
    )

    def type_of(self, block_index: int) -> Optional[int]:
        """Phase type of block *block_index*, or ``None`` if untyped."""
        return self.typing.type_of(self.cfg.blocks[block_index])

    def __iter__(self):
        return iter(self.cfg)

    def __len__(self) -> int:
        return len(self.cfg)

    @property
    def intervals(self) -> list[Interval]:
        return self.analyses.intervals(self.cfg)

    @property
    def loops(self) -> list[Loop]:
        return self.analyses.loops(self.cfg)


class AttributedProgram:
    """The whole-program view the static analysis pipeline operates on.

    Args:
        analyses: the memo to read shared analyses from; a private one
            when omitted.
    """

    def __init__(
        self,
        program: Program,
        typing: BlockTyping,
        analyses: Optional[StaticAnalyses] = None,
    ):
        self.program = program
        self.typing = typing
        self.analyses = analyses if analyses is not None else StaticAnalyses()
        self.cfgs = build_all_cfgs(program)
        self.attributed = {
            name: AttributedCFG(cfg, typing, self.analyses)
            for name, cfg in self.cfgs.items()
        }

    def __getitem__(self, proc_name: str) -> AttributedCFG:
        return self.attributed[proc_name]

    def __iter__(self):
        return iter(self.attributed.values())

    @property
    def callgraph(self) -> CallGraph:
        return self.analyses.callgraph(self.program)

    def block(self, uid: str) -> BasicBlock:
        """Resolve a block uid (``"proc#index"``) to its block."""
        proc, _, index = uid.partition("#")
        return self.cfgs[proc].blocks[int(index)]


def annotate_program(
    program: Program,
    typing: BlockTyping,
    analyses: Optional[StaticAnalyses] = None,
) -> AttributedProgram:
    """Convenience constructor for :class:`AttributedProgram`."""
    return AttributedProgram(program, typing, analyses)
