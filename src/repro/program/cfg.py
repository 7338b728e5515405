"""Leader-based CFG construction with forward/backward edge tagging.

Following the paper (Section II-A1), a control-flow graph here is
``⟨N, E, η0⟩``: nodes are attributed basic blocks plus special nodes for
calls and system calls, edges carry a ``b``/``f`` tag for backward vs
forward flow, and ``η0`` is the entry block.  Edge direction tags are
computed from dominators: an edge is *backward* iff its target dominates
its source (the natural-loop back-edge criterion); all interval and loop
traversals in :mod:`repro.analysis` ignore backward edges, as the paper
prescribes.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import ProgramStructureError
from repro.isa.instructions import Instruction, Opcode
from repro.program.basic_block import BasicBlock, NodeKind
from repro.program.module import Procedure

#: Edge kind tags, as in the paper's E ⊆ N × N × {b, f}.
BACKWARD = "b"
FORWARD = "f"


@dataclass(frozen=True)
class Edge:
    """A tagged control-flow edge between block indices."""

    src: int
    dst: int
    kind: str  # BACKWARD or FORWARD


class CFG:
    """An intra-procedural control-flow graph.

    Blocks are indexed densely ``0..n-1`` in program order; block 0 is the
    entry ``η0``.  Successor/predecessor queries return block indices.
    """

    def __init__(self, proc_name: str, blocks: list[BasicBlock], edges: list[Edge]):
        self.proc_name = proc_name
        self.blocks = blocks
        self.edges = edges
        self._succs: list[list[Edge]] = [[] for _ in blocks]
        self._preds: list[list[Edge]] = [[] for _ in blocks]
        for e in edges:
            if not (0 <= e.src < len(blocks) and 0 <= e.dst < len(blocks)):
                raise ProgramStructureError(
                    f"edge {e} out of range in CFG of {proc_name!r}"
                )
            self._succs[e.src].append(e)
            self._preds[e.dst].append(e)
        self._rpo: Optional[tuple[int, ...]] = None

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks)

    @property
    def entry(self) -> BasicBlock:
        """The entry node η0."""
        return self.blocks[0]

    def succs(self, idx: int, ignore_back: bool = False) -> list[int]:
        """Successor block indices of *idx*.

        Args:
            ignore_back: drop backward edges (used by the summarization
                traversals, which the paper runs on forward edges only).
        """
        return [
            e.dst
            for e in self._succs[idx]
            if not (ignore_back and e.kind == BACKWARD)
        ]

    def preds(self, idx: int, ignore_back: bool = False) -> list[int]:
        """Predecessor block indices of *idx*."""
        return [
            e.src
            for e in self._preds[idx]
            if not (ignore_back and e.kind == BACKWARD)
        ]

    def out_edges(self, idx: int) -> list[Edge]:
        return list(self._succs[idx])

    def in_edges(self, idx: int) -> list[Edge]:
        return list(self._preds[idx])

    def back_edges(self) -> list[Edge]:
        """All edges tagged backward."""
        return [e for e in self.edges if e.kind == BACKWARD]

    def reverse_postorder(self) -> tuple[int, ...]:
        """Block indices in reverse postorder from the entry.

        Computed once per CFG: dominators, intervals, loop summaries,
        transitions and validation all walk it, and edges never change
        after construction.
        """
        if self._rpo is None:
            self._rpo = self._compute_reverse_postorder()
        return self._rpo

    def _compute_reverse_postorder(self) -> tuple[int, ...]:
        seen = [False] * len(self.blocks)
        order: list[int] = []

        # Iterative DFS with an explicit stack to avoid recursion limits on
        # large generated procedures.
        stack: list[tuple[int, Iterator[int]]] = []
        seen[0] = True
        stack.append((0, iter(self.succs(0))))
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append((nxt, iter(self.succs(nxt))))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
        order.reverse()
        return tuple(order)

    def __repr__(self) -> str:
        return f"CFG({self.proc_name!r}, {len(self.blocks)} blocks, {len(self.edges)} edges)"


def _find_leaders(proc: Procedure) -> set[int]:
    """Instruction indices that start a basic block."""
    leaders = {0}
    for i, instr in enumerate(proc.code):
        target = instr.label_target
        if target is not None:
            resolved = proc.resolve(target)
            if resolved >= len(proc.code):
                raise ProgramStructureError(
                    f"control flows past the end of procedure "
                    f"{proc.name!r} (branch to end label {target!r})"
                )
            leaders.add(resolved)
        if instr.ends_block and i + 1 < len(proc.code):
            leaders.add(i + 1)
        # Calls and syscalls become their own special nodes.
        if instr.is_call or instr.opcode is Opcode.SYS:
            leaders.add(i)
            if i + 1 < len(proc.code):
                leaders.add(i + 1)
    return leaders


def _node_kind(instrs: list[Instruction]) -> NodeKind:
    if len(instrs) == 1:
        if instrs[0].is_call:
            return NodeKind.CALL
        if instrs[0].opcode is Opcode.SYS:
            return NodeKind.SYSCALL
    return NodeKind.BLOCK


def build_cfg(proc: Procedure) -> CFG:
    """Build the control-flow graph of *proc*.

    Block discovery uses the classic leaders algorithm; call and syscall
    instructions are singled out into special nodes.  Edges are tagged
    backward iff the target dominates the source (computed here with a
    self-contained iterative pass so :mod:`dominators` can stay generic).

    Raises:
        ProgramStructureError: on branches to unknown labels.
    """
    leaders = sorted(_find_leaders(proc))
    starts = {start: bi for bi, start in enumerate(leaders)}
    bounds = leaders + [len(proc.code)]

    blocks: list[BasicBlock] = []
    for bi, start in enumerate(leaders):
        instrs = proc.code[start : bounds[bi + 1]]
        blocks.append(BasicBlock(proc.name, bi, start, instrs, _node_kind(instrs)))

    def block_of(instr_index: int) -> int:
        if instr_index == len(proc.code):
            # A label at the very end: no block to flow to.
            raise ProgramStructureError(
                f"control flows past the end of procedure {proc.name!r}"
            )
        try:
            return starts[instr_index]
        except KeyError:  # pragma: no cover - leaders cover all targets
            raise ProgramStructureError(
                f"branch target at instruction {instr_index} of "
                f"{proc.name!r} is not a block leader"
            ) from None

    raw_edges: list[tuple[int, int]] = []
    for bi, block in enumerate(blocks):
        last = block.instrs[-1]
        if last.opcode is Opcode.BR:
            raw_edges.append((bi, block_of(proc.resolve(last.operands[1]))))
            if block.end < len(proc.code):
                raw_edges.append((bi, block_of(block.end)))
        elif last.opcode is Opcode.JMP:
            raw_edges.append((bi, block_of(proc.resolve(last.operands[0]))))
        elif last.opcode in (Opcode.JMPI, Opcode.RET):
            # Unknown indirect target / procedure exit: no intra-CFG edge.
            # The paper "currently ignores typing unknown targets".
            pass
        else:
            # Fall through (including out of call/syscall special nodes).
            if block.end < len(proc.code):
                raw_edges.append((bi, block_of(block.end)))

    kinds = _tag_edges(len(blocks), raw_edges)
    edges = [Edge(s, d, k) for (s, d), k in zip(raw_edges, kinds)]
    return CFG(proc.name, blocks, edges)


#: Process-wide CFG memo.  Procedures are immutable after construction
#: (nothing in the codebase mutates ``proc.code`` in place), so the CFG
#: of a given Procedure object can be shared by every consumer — trace
#: generation, block typing, annotation and the call graph all build the
#: same graphs.  Keyed weakly so dropping a program frees its CFGs.
_CFG_MEMO: "weakref.WeakKeyDictionary[Procedure, CFG]" = weakref.WeakKeyDictionary()


def cached_cfg(proc: Procedure) -> CFG:
    """Memoized :func:`build_cfg`, keyed on Procedure object identity."""
    cfg = _CFG_MEMO.get(proc)
    if cfg is None:
        cfg = build_cfg(proc)
        _CFG_MEMO[proc] = cfg
    return cfg


def _tag_edges(n: int, raw_edges: list[tuple[int, int]]) -> list[str]:
    """Tag each edge backward iff its target dominates its source."""
    succs: list[list[int]] = [[] for _ in range(n)]
    for s, d in raw_edges:
        succs[s].append(d)

    idom = _immediate_dominators(n, succs)

    def dominates(a: int, b: int) -> bool:
        # Walk b's dominator chain up to the entry.
        node: Optional[int] = b
        while node is not None:
            if node == a:
                return True
            node = idom[node] if node != 0 else None
        return False

    return [BACKWARD if dominates(d, s) else FORWARD for s, d in raw_edges]


def _immediate_dominators(n: int, succs: list[list[int]]) -> list[Optional[int]]:
    """Cooper-Harvey-Kennedy iterative immediate dominators.

    Unreachable nodes get ``idom = None`` and dominate nothing.
    """
    preds: list[list[int]] = [[] for _ in range(n)]
    for s in range(n):
        for d in succs[s]:
            preds[d].append(s)

    # Reverse postorder over reachable nodes.
    seen = [False] * n
    order: list[int] = []
    stack: list[tuple[int, Iterator[int]]] = []
    seen[0] = True
    stack.append((0, iter(succs[0])))
    while stack:
        node, it = stack[-1]
        advanced = False
        for nxt in it:
            if not seen[nxt]:
                seen[nxt] = True
                stack.append((nxt, iter(succs[nxt])))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    order.reverse()
    rpo_num = {node: i for i, node in enumerate(order)}

    idom: list[Optional[int]] = [None] * n
    idom[0] = 0

    def intersect(a: int, b: int) -> int:
        while a != b:
            while rpo_num[a] > rpo_num[b]:
                a = idom[a]  # type: ignore[assignment]
            while rpo_num[b] > rpo_num[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for node in order:
            if node == 0:
                continue
            candidates = [p for p in preds[node] if idom[p] is not None]
            if not candidates:
                continue
            new_idom = candidates[0]
            for p in candidates[1:]:
                new_idom = intersect(p, new_idom)
            if idom[node] != new_idom:
                idom[node] = new_idom
                changed = True

    idom[0] = None  # Entry has no immediate dominator.
    return idom
