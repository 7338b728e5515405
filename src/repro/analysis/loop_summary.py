"""Loop summarization — Algorithm 1 of the paper, inter-procedural.

For each procedure, bottom-up over the call graph:

* every natural loop is traversed breadth-first from its header,
  ignoring back edges, maintaining a type map ``M : Π → ℝ`` updated as
  ``M ⊕ {π ↦ M(π) + wn(λ)·ϕ(η)}`` where ``λ`` is the node's nesting
  level *within the loop*, ``wn`` maps nesting levels to weights, and
  ``ϕ`` is the node weight (instruction count; call nodes contribute
  their callee's summarized type map);
* the dominant type ``π_l = argmax M`` and the type strength
  ``σ_l = M(π_l) / Σ M(π)`` are recorded;
* the loop type map ``T`` is maintained with Algorithm 1's rules: a loop
  whose single immediately-nested loop has the same type (or a weaker
  strength) absorbs it; a loop whose multiple disjoint immediate
  children all share its type absorbs them; loops with no children are
  added directly.  (The paper states the disjoint rule for exactly two
  children; we generalise it to any count, which degenerates to the
  paper's rule for two.)

Indirect/mutual recursion is handled as the paper prescribes: procedures
in a call-graph cycle are seeded with empty summaries and re-analysed
until their dominant types and T sets reach a fixpoint (with an iteration
cap as a safety net).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.program.basic_block import NodeKind
from repro.program.loops import Loop, block_nesting_levels

if TYPE_CHECKING:
    from repro.analysis.annotate import AttributedProgram


def default_nesting_weight(level: int) -> float:
    """The default ``wn``: an order of magnitude per nesting level.

    Loops typically iterate many times, so a node one level deeper is
    assumed to execute ~10x more often.
    """
    return 10.0 ** level


@dataclass(frozen=True)
class TypedLoop:
    """A loop with its dominant type and strength."""

    loop: Loop
    dominant_type: Optional[int]
    strength: float
    size_instrs: int

    @property
    def uid(self) -> str:
        return self.loop.uid


@dataclass
class ProcedureSummary:
    """Whole-procedure type distribution, used at call sites.

    Attributes:
        type_map: accumulated weight per type over the entire procedure
            body (loop nesting included), with callee contributions.
        dominant_type: argmax of ``type_map`` (``None`` if empty).
        strength: σ of the dominant type.
    """

    proc_name: str
    type_map: dict = field(default_factory=dict)

    @property
    def dominant_type(self) -> Optional[int]:
        if not self.type_map:
            return None
        return min(self.type_map, key=lambda t: (-self.type_map[t], t))

    @property
    def strength(self) -> float:
        total = sum(self.type_map.values())
        if total <= 0:
            return 0.0
        return self.type_map[self.dominant_type] / total

    @property
    def total_weight(self) -> float:
        return sum(self.type_map.values())


@dataclass
class LoopSummary:
    """Result of the inter-procedural loop analysis over a program.

    Attributes:
        typed_loops: the final loop type map T — the loops that survive
            Algorithm 1's nesting rules and are candidates for phase
            marks.
        all_loops: every loop's typing, before T filtering (used by the
            typing-accuracy evaluation of Section II-A3).
        proc_summaries: per-procedure type distributions.
    """

    typed_loops: list[TypedLoop]
    all_loops: dict  # loop uid -> TypedLoop
    proc_summaries: dict  # proc name -> ProcedureSummary

    def loops_of(self, proc_name: str) -> list[TypedLoop]:
        """Loops of *proc_name* in T."""
        return [tl for tl in self.typed_loops if tl.loop.proc == proc_name]


#: Cap on fixpoint iterations for recursive call-graph cycles.
_MAX_FIXPOINT_ITERATIONS = 10


def _loop_type_map(
    acfg,
    loop: Loop,
    summaries: dict,
    program,
    wn: Callable[[int], float],
) -> tuple[dict, int]:
    """Compute M for one loop via nesting-weighted BFS (back edges
    ignored), returning (type map, static size in instructions)."""
    cfg = acfg.cfg
    values: dict[int, float] = defaultdict(float)
    size = 0

    visited = {loop.header}
    queue = deque([loop.header])
    while queue:
        node = queue.popleft()
        block = cfg.blocks[node]
        size += len(block)
        # λ = |{l' ∈ L | l' ⊂ l ∧ η ∈ l'}|
        level = sum(
            1
            for child in _strict_descendants(loop)
            if node in child.body
        )
        weight = wn(level)

        if block.kind is NodeKind.CALL:
            callee = block.call_target
            summary = summaries.get(callee) if callee else None
            if summary is not None:
                for type_id, type_weight in summary.type_map.items():
                    values[type_id] += weight * type_weight
        else:
            node_type = acfg.type_of(node)
            if node_type is not None:
                values[node_type] += weight * len(block)

        for succ in cfg.succs(node, ignore_back=True):
            if succ in loop.body and succ not in visited:
                visited.add(succ)
                queue.append(succ)

    return dict(values), size


def _strict_descendants(loop: Loop) -> list[Loop]:
    """All loops strictly nested inside *loop* (any depth)."""
    result = []
    stack = list(loop.children)
    while stack:
        child = stack.pop()
        result.append(child)
        stack.extend(child.children)
    return result


def _dominant(values: dict) -> tuple[Optional[int], float]:
    if not values:
        return None, 0.0
    dominant = min(values, key=lambda t: (-values[t], t))
    total = sum(values.values())
    return dominant, (values[dominant] / total if total > 0 else 0.0)


def _procedure_type_map(
    acfg, summaries: dict, program, wn: Callable[[int], float]
) -> dict:
    """Whole-procedure type map: every block weighted by its total loop
    nesting level, call nodes contributing callee maps."""
    cfg = acfg.cfg
    loops = acfg.loops
    nesting = block_nesting_levels(cfg, loops)
    values: dict[int, float] = defaultdict(float)
    for node in cfg.reverse_postorder():
        block = cfg.blocks[node]
        weight = wn(nesting[node])
        if block.kind is NodeKind.CALL:
            callee = block.call_target
            summary = summaries.get(callee) if callee else None
            if summary is not None:
                for type_id, type_weight in summary.type_map.items():
                    values[type_id] += weight * type_weight
        else:
            node_type = acfg.type_of(node)
            if node_type is not None:
                values[node_type] += weight * len(block)
    return dict(values)


def _summarize_procedure_loops(
    acfg,
    summaries: dict,
    program,
    wn: Callable[[int], float],
) -> tuple[list[TypedLoop], dict]:
    """Run Algorithm 1 over one procedure.

    Returns (T for this procedure, all typed loops by uid).
    """
    loops = acfg.loops  # Innermost-first, as Algorithm 1 wants.
    typed: dict[str, TypedLoop] = {}
    t_set: dict[str, TypedLoop] = {}

    for loop in loops:
        values, size = _loop_type_map(acfg, loop, summaries, program, wn)
        dominant, strength = _dominant(values)
        typed_loop = TypedLoop(loop, dominant, strength, size)
        typed[loop.uid] = typed_loop

        children = loop.children
        if len(children) == 1:
            inner = typed.get(children[0].uid)
            in_t = inner is not None and children[0].uid in t_set
            if in_t and (
                inner.dominant_type == dominant or inner.strength < strength
            ):
                t_set[loop.uid] = typed_loop
                del t_set[children[0].uid]
            # Otherwise the inner loop's (stronger, differently-typed)
            # entry in T stands and the outer loop gets no entry.
        elif len(children) >= 2:
            child_loops = [typed.get(c.uid) for c in children]
            all_in_t = all(c.uid in t_set for c in children)
            same_type = (
                all_in_t
                and len({ct.dominant_type for ct in child_loops}) == 1
                and child_loops[0].dominant_type == dominant
            )
            if same_type:
                t_set[loop.uid] = typed_loop
                for child in children:
                    del t_set[child.uid]
        else:
            t_set[loop.uid] = typed_loop

    return list(t_set.values()), typed


def summarize_loops(
    aprog: AttributedProgram,
    wn: Callable[[int], float] = default_nesting_weight,
) -> LoopSummary:
    """Run the full inter-procedural loop analysis over *aprog*."""
    summaries: dict[str, ProcedureSummary] = {}
    typed_loops: list[TypedLoop] = []
    all_loops: dict[str, TypedLoop] = {}

    for scc in aprog.callgraph.bottom_up_sccs():
        recursive = aprog.callgraph.is_recursive(scc)
        # Seed cycle members with empty summaries so the first pass has
        # something to look up ("randomly choose one procedure to
        # analyze first"); Tarjan's order makes the seed deterministic.
        for name in scc:
            summaries.setdefault(name, ProcedureSummary(name))

        iterations = _MAX_FIXPOINT_ITERATIONS if recursive else 1
        scc_result: dict[str, tuple[list[TypedLoop], dict]] = {}
        previous_signature = None
        for _ in range(iterations):
            for name in scc:
                acfg = aprog[name]
                summaries[name] = ProcedureSummary(
                    name, _procedure_type_map(acfg, summaries, aprog.program, wn)
                )
                scc_result[name] = _summarize_procedure_loops(
                    acfg, summaries, aprog.program, wn
                )
            signature = tuple(
                (uid, tl.dominant_type)
                for name in scc
                for uid, tl in sorted(scc_result[name][1].items())
            )
            if signature == previous_signature:
                break
            previous_signature = signature

        for name in scc:
            proc_t, proc_all = scc_result[name]
            typed_loops.extend(proc_t)
            all_loops.update(proc_all)

    typed_loops.sort(key=lambda tl: tl.uid)
    return LoopSummary(typed_loops, all_loops, summaries)
