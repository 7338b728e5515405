"""Phase-transition points (Section II-A1d and II-A2).

A phase-transition point is a point where control flows from a section of
one phase type into a section of a different type.  Sections are basic
blocks, intervals, or loops depending on the technique; in every case a
phase mark is placed on the edges that *enter* the section from outside,
and the mark carries the section's phase type (the runtime compares it
against the currently active type, so a statically over-approximated
trigger set only costs a cheap dynamic no-op, never correctness).

Filters from the paper:

* **minimum size** — sections below a static instruction-count threshold
  are skipped, because tiny sections would fire marks far too often;
* **lookahead** (basic-block technique) — a mark is inserted "only if
  majority of the successors of a code section up to a fixed depth have
  the same type", so a switch is likely amortized.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.program.basic_block import NodeKind

if TYPE_CHECKING:
    from repro.analysis.annotate import AttributedCFG, AttributedProgram
    from repro.analysis.loop_summary import LoopSummary


@dataclass(frozen=True)
class TransitionPoint:
    """One phase mark to insert.

    Attributes:
        proc: procedure name.
        kind: sectioning technique, ``"bb"``, ``"interval"`` or ``"loop"``.
        phase_type: the section's phase type the mark announces.
        entry_block: block index at which the section is entered.
        section_blocks: all block indices of the section.
        size_instrs: static instruction count of the section.
        trigger_edges: CFG edges (src, dst) entering the section from
            outside, where mark code is spliced.  Empty iff the section
            is entered at the procedure entry.
        at_proc_entry: the section starts at the procedure entry, so the
            mark is placed at the procedure's first instruction.
    """

    proc: str
    kind: str
    phase_type: int
    entry_block: int
    section_blocks: frozenset
    size_instrs: int
    trigger_edges: tuple
    at_proc_entry: bool = False

    @property
    def uid(self) -> str:
        return f"{self.proc}/{self.kind}@{self.entry_block}"


def _entering_edges(
    acfg: AttributedCFG, entry_block: int, section: frozenset
) -> tuple[tuple, bool]:
    """Edges entering *section* at *entry_block* from outside it."""
    cfg = acfg.cfg
    edges = tuple(
        (src, entry_block)
        for src in cfg.preds(entry_block)
        if src not in section
    )
    at_entry = entry_block == 0
    return edges, at_entry


def _majority_lookahead(
    acfg: AttributedCFG, block: int, phase_type: int, depth: int
) -> bool:
    """Lookahead test: do the majority of successors of *block* up to
    *depth* share *phase_type*?  Depth 0 disables the test."""
    if depth <= 0:
        return True
    cfg = acfg.cfg
    same = 0
    total = 0
    visited = {block}
    frontier = deque([(block, 0)])
    while frontier:
        node, dist = frontier.popleft()
        if dist >= depth:
            continue
        for succ in cfg.succs(node):
            if succ in visited:
                continue
            visited.add(succ)
            succ_type = acfg.type_of(succ)
            if succ_type is not None:
                total += 1
                if succ_type == phase_type:
                    same += 1
            frontier.append((succ, dist + 1))
    if total == 0:
        return True
    return same * 2 > total


def _may_change_type(
    acfg: AttributedCFG, entry_block: int, section: frozenset, phase_type: int,
    min_size: int,
) -> bool:
    """Could control arrive at *section* while a different type is
    active?

    Walks backwards from the section entry through skipped (small or
    untyped) blocks; if every sized typed block feeding in has the same
    type, the mark would never fire and is omitted.  Procedure entries
    always count as potential changes (the caller's type is unknown).
    """
    cfg = acfg.cfg
    visited = set(section)
    stack = [
        src for src in cfg.preds(entry_block) if src not in section
    ]
    if entry_block == 0:
        return True
    while stack:
        node = stack.pop()
        if node in visited:
            continue
        visited.add(node)
        block = cfg.blocks[node]
        node_type = acfg.type_of(node)
        if node_type is not None and len(block) >= min_size:
            if node_type != phase_type:
                return True
            continue  # Same type: this path cannot change the phase.
        if node == 0:
            return True  # Reached procedure entry through skipped code.
        preds = cfg.preds(node)
        if not preds:
            return True
        stack.extend(preds)
    return False


def basic_block_sections(
    aprog: AttributedProgram, min_size: int
) -> tuple[TransitionPoint, ...]:
    """The basic-block technique's sections before lookahead: reachable
    typed blocks of at least *min_size* instructions whose mark could
    fire, as transition points.  Every lookahead at one *min_size*
    filters the same sections (read them through
    :meth:`StaticAnalyses.bb_sections
    <repro.analysis.annotate.StaticAnalyses.bb_sections>`)."""
    points: list[TransitionPoint] = []
    for acfg in aprog:
        cfg = acfg.cfg
        reachable = set(cfg.reverse_postorder())
        for block in cfg:
            if block.index not in reachable:
                continue
            if block.kind is not NodeKind.BLOCK or len(block) < min_size:
                continue
            phase_type = acfg.type_of(block.index)
            if phase_type is None:
                continue
            section = frozenset({block.index})
            if not _may_change_type(
                acfg, block.index, section, phase_type, min_size
            ):
                continue
            edges, at_entry = _entering_edges(acfg, block.index, section)
            points.append(
                TransitionPoint(
                    proc=cfg.proc_name,
                    kind="bb",
                    phase_type=phase_type,
                    entry_block=block.index,
                    section_blocks=section,
                    size_instrs=len(block),
                    trigger_edges=edges,
                    at_proc_entry=at_entry,
                )
            )
    return tuple(points)


def basic_block_transitions(
    aprog: AttributedProgram,
    min_size: int = 10,
    lookahead: int = 0,
) -> list[TransitionPoint]:
    """Basic-block technique: sections are single typed blocks of at
    least *min_size* instructions; *lookahead* applies the majority test.
    """
    return [
        point
        for point in aprog.analyses.bb_sections(aprog, min_size)
        if _majority_lookahead(
            aprog[point.proc], point.entry_block, point.phase_type, lookahead
        )
    ]


def interval_transitions(
    aprog: AttributedProgram, min_size: int = 30
) -> list[TransitionPoint]:
    """Interval technique: sections are intervals of at least *min_size*
    instructions summarized to a dominant type."""
    points: list[TransitionPoint] = []
    for acfg in aprog:
        cfg = acfg.cfg
        summary = aprog.analyses.interval_summary(acfg)
        for typed in summary.intervals:
            if typed.dominant_type is None or typed.size_instrs < min_size:
                continue
            section = frozenset(typed.interval.nodes)
            # A mark fires only if a differently-typed sized interval can
            # precede this one.
            preceding_types = set()
            proc_entry_inside = typed.interval.header == 0
            for src in cfg.preds(typed.interval.header):
                if src in section:
                    continue
                owner = summary.interval_of(src)
                if owner is None:
                    preceding_types.add(None)
                    continue
                prev = summary.intervals[owner]
                if prev.dominant_type is None or prev.size_instrs < min_size:
                    preceding_types.add(None)
                else:
                    preceding_types.add(prev.dominant_type)
            changes = proc_entry_inside or any(
                t is None or t != typed.dominant_type for t in preceding_types
            )
            if not changes:
                continue
            edges, at_entry = _entering_edges(
                acfg, typed.interval.header, section
            )
            points.append(
                TransitionPoint(
                    proc=cfg.proc_name,
                    kind="interval",
                    phase_type=typed.dominant_type,
                    entry_block=typed.interval.header,
                    section_blocks=section,
                    size_instrs=typed.size_instrs,
                    trigger_edges=edges,
                    at_proc_entry=at_entry,
                )
            )
    return points


def loop_transitions(
    aprog: AttributedProgram,
    min_size: int = 45,
    eliminate_same_type_callees: bool = True,
) -> list[TransitionPoint]:
    """Loop technique: sections are the loops surviving Algorithm 1's
    type map T, marked before their entry.

    Args:
        eliminate_same_type_callees: drop marks in procedures whose every
            call site already sits inside a marked loop of the same type
            ("eliminate phase marks in functions that are called inside
            of loops").
    """
    summary = aprog.analyses.loop_summary(aprog)

    candidates = [
        tl
        for tl in summary.typed_loops
        if tl.dominant_type is not None and tl.size_instrs >= min_size
    ]

    if eliminate_same_type_callees:
        candidates = _eliminate_callee_marks(aprog, summary, candidates)

    points: list[TransitionPoint] = []
    for typed in candidates:
        acfg = aprog[typed.loop.proc]
        section = frozenset(typed.loop.body)
        edges, at_entry = _entering_edges(acfg, typed.loop.header, section)
        points.append(
            TransitionPoint(
                proc=typed.loop.proc,
                kind="loop",
                phase_type=typed.dominant_type,
                entry_block=typed.loop.header,
                section_blocks=section,
                size_instrs=typed.size_instrs,
                trigger_edges=edges,
                at_proc_entry=at_entry,
            )
        )
    return points


def _eliminate_callee_marks(
    aprog: AttributedProgram,
    summary: LoopSummary,
    candidates: list,
) -> list:
    """Drop loops of procedures dominated by their call-site context.

    A procedure's loops are unmarked when every direct call site of the
    procedure lies inside a candidate loop whose type equals the type of
    each of the procedure's candidate loops — entering the procedure then
    cannot change the phase, so its marks are pure overhead.
    """
    # Innermost candidate loop type covering each call site.
    call_context: dict[str, set] = {}
    candidate_by_proc: dict[str, list] = {}
    for tl in candidates:
        candidate_by_proc.setdefault(tl.loop.proc, []).append(tl)

    for acfg in aprog:
        cfg = acfg.cfg
        proc_candidates = candidate_by_proc.get(cfg.proc_name, [])
        for block in cfg:
            if block.kind is not NodeKind.CALL:
                continue
            callee = block.call_target
            if callee is None:
                continue
            covering = [
                tl for tl in proc_candidates if block.index in tl.loop.body
            ]
            if covering:
                innermost = min(covering, key=lambda tl: len(tl.loop.body))
                call_context.setdefault(callee, set()).add(
                    innermost.dominant_type
                )
            else:
                call_context.setdefault(callee, set()).add(None)

    result = []
    for tl in candidates:
        contexts = call_context.get(tl.loop.proc)
        is_entry_proc = tl.loop.proc == aprog.program.entry
        if (
            contexts
            and not is_entry_proc
            and contexts == {tl.dominant_type}
            and all(
                other.dominant_type == tl.dominant_type
                for other in candidate_by_proc.get(tl.loop.proc, [])
            )
        ):
            continue  # Redundant: callers already established this type.
        result.append(tl)
    return result
