"""Interval summarization (Section II-A1b).

"For each interval we compute its dominant type by doing a depth-first
traversal of the interval starting with the entry node, while ignoring
backward control-flow edges.  Throughout this traversal, a value is
computed for each type.  Each node has a weight associated with it (those
within cycles are given a higher weight)."

The node weight here is its instruction count; nodes inside a cycle of
the interval (detected via the CFG's loop structure) are boosted by
``cycle_weight``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.program.intervals import Interval
from repro.program.loops import block_nesting_levels

if TYPE_CHECKING:
    from repro.analysis.annotate import AttributedCFG


@dataclass(frozen=True)
class TypedInterval:
    """An interval with its dominant type.

    Attributes:
        interval: the underlying interval (block indices).
        dominant_type: the type with the highest accumulated value, or
            ``None`` when no member block is typed.
        strength: dominant value over the sum of all values (σ), 0 when
            untyped.
        size_instrs: total static instruction count of member blocks.
    """

    interval: Interval
    dominant_type: Optional[int]
    strength: float
    size_instrs: int

    @property
    def header(self) -> int:
        return self.interval.header


@dataclass(frozen=True)
class IntervalSummary:
    """All typed intervals of one procedure plus the membership map."""

    proc_name: str
    intervals: list[TypedInterval]
    owner: dict  # block index -> interval position in ``intervals``

    def interval_of(self, block_index: int) -> Optional[int]:
        return self.owner.get(block_index)


def summarize_intervals(
    acfg: AttributedCFG, cycle_weight: float = 10.0
) -> IntervalSummary:
    """Compute the dominant type of every interval of *acfg*.

    Args:
        cycle_weight: multiplier applied to the weight of nodes that lie
            inside a cycle (loop) contained in the interval.
    """
    cfg = acfg.cfg
    nesting = block_nesting_levels(cfg, acfg.loops)

    summaries: list[TypedInterval] = []
    owner: dict = {}
    for position, interval in enumerate(acfg.intervals):
        members = set(interval.nodes)
        for block in interval.nodes:
            owner[block] = position

        values: dict[int, float] = defaultdict(float)
        size = 0
        # Depth-first traversal from the header, forward edges only,
        # restricted to the interval.
        visited = {interval.header}
        stack = [interval.header]
        while stack:
            node = stack.pop()
            block = cfg.blocks[node]
            size += len(block)
            node_type = acfg.type_of(node)
            if node_type is not None:
                weight = float(len(block))
                if nesting[node] > 0:
                    # The node sits inside a cycle captured by the
                    # interval (interval headers dominate their loops).
                    weight *= cycle_weight
                values[node_type] += weight
            for succ in cfg.succs(node, ignore_back=True):
                if succ in members and succ not in visited:
                    visited.add(succ)
                    stack.append(succ)

        if values:
            dominant = min(
                (t for t in values),
                key=lambda t: (-values[t], t),
            )
            total = sum(values.values())
            strength = values[dominant] / total if total > 0 else 0.0
        else:
            dominant = None
            strength = 0.0
        summaries.append(TypedInterval(interval, dominant, strength, size))

    return IntervalSummary(cfg.proc_name, summaries, owner)
