"""Flat trace representation for the batched executor.

A :class:`~repro.sim.process.Trace` is a tree of segments and repeats;
the stepped executor walks it one segment-step at a time through a
:class:`~repro.sim.process.TraceCursor`.  This module flattens the tree
once per trace into its *visits* — one per segment entry, in exactly
the order the cursor would produce — so the executor's quantum loop
indexes any step in O(1) and keeps the cursor state in a position and
an iteration count.

A visit is a reference to its segment's *step row* on the running core
type: one tuple per segment and core type with everything the quantum
loop reads, built once and cached on the segment, so every visit and
every trace holding the segment share it.  Marked sections recur many
times per run (a Table 2 trace has ~120 visits of ~46 distinct
segments), so the flat form costs a few pointers per visit instead of a
copy of the step's costs.

Flattening is capped (:data:`FLATTEN_LIMIT` steps): traces whose repeat
structure expands beyond the cap — possible only for hand-built
pathological traces, not generator output — keep the tree walker.

The flat form is a pure cache over the trace (cached on
``Trace._flat``, the rows on ``Segment._rows``, all excluded from
equality and pickling); every float in a row is taken verbatim from
``Segment.cost_tuple``, so the batched and stepped executors see
bit-identical per-step costs.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SimulationError
from repro.instrument.phase_mark import MARK_FIRE_CYCLES
from repro.sim.process import Repeat, Segment, Trace

#: Flattened-step cap: beyond this the tree walker is kept.  Generator
#: traces respect ``BehaviorSpec.segment_budget`` (default 200k) per
#: expanded loop but stay in the hundreds of steps in practice.
FLATTEN_LIMIT = 65_536


class _TooLarge(Exception):
    pass


def _flat_steps(trace: Trace, limit: int) -> list:
    """Segment visits in TraceCursor order, or raise :class:`_TooLarge`.

    Mirrors ``TraceCursor._descend``: zero-iteration segments and
    empty/zero-count repeats are skipped; a repeat's children are
    visited ``count`` times consecutively.
    """
    steps: list = []

    def walk(nodes) -> None:
        for node in nodes:
            if isinstance(node, Segment):
                if node.iterations <= 0:
                    continue
                steps.append(node)
                if len(steps) > limit:
                    raise _TooLarge()
            elif node.count > 0 and node.children:
                for _ in range(node.count):
                    walk(node.children)

    walk(trace.nodes)
    return steps


def step_row(seg: Segment, ctype_name: str) -> tuple:
    """The step row of *seg* on one core type (cached on the segment).

    ``(iterations, instrs, ovh, emb_multi, compute, stall, l2, sfrac,
    entry_marked, any_marked)``: ``ovh`` is the embedded-mark overhead
    per iteration under a runtime-less simulation (the only mode that
    batches embedded steps), the identical expression to
    ``Simulation._embedded_overhead``; ``emb_multi`` flags two or more
    embedded marks, the only steps that can thrash between decided
    core types under a runtime.
    """
    rows = seg._rows
    if rows is None:
        rows = seg._rows = {}
    row = rows.get(ctype_name)
    if row is None:
        compute, stall, l2, instrs, sfrac = seg.cost_tuple(ctype_name)
        embedded = seg.embedded
        row = rows[ctype_name] = (
            seg.iterations,
            instrs,
            seg.embedded_rate * MARK_FIRE_CYCLES if embedded else 0.0,
            len(embedded) > 1,
            compute,
            stall,
            l2,
            sfrac,
            bool(seg.entry_marks),
            bool(seg.entry_marks or embedded),
        )
    return row


class FlatTrace:
    """The visits of one trace (shared, read-only): ``segs[i]`` is the
    *i*-th visited segment and ``rows[ctype][i]`` its step row on that
    core type, the one row object every visit shares."""

    __slots__ = ("n", "segs", "rows")

    def __init__(self, steps: list, ctype_names) -> None:
        self.n = len(steps)
        self.segs = steps
        self.rows = {
            name: [step_row(seg, name) for seg in steps] for name in ctype_names
        }


def flat_trace(trace: Trace) -> Optional[FlatTrace]:
    """The cached :class:`FlatTrace` of *trace*, or ``None`` if the
    trace is empty, oversized, or carries no per-core-type costs."""
    flat = trace._flat
    if flat is not None:
        return flat if flat is not _UNFLATTENABLE else None
    try:
        steps = _flat_steps(trace, FLATTEN_LIMIT)
    except _TooLarge:
        trace._flat = _UNFLATTENABLE
        return None
    if not steps:
        trace._flat = _UNFLATTENABLE
        return None
    ctype_names = tuple(steps[0].cost.compute)
    for seg in steps:
        if tuple(seg.cost.compute) != ctype_names:
            trace._flat = _UNFLATTENABLE
            return None
    flat = FlatTrace(steps, ctype_names)
    trace._flat = flat
    return flat


#: Sentinel cached on traces that cannot be flattened.
_UNFLATTENABLE = object()


class FlatCursor:
    """Drop-in replacement for :class:`~repro.sim.process.TraceCursor`
    over a :class:`FlatTrace`.

    Exposes the same public surface (``finished`` / ``current`` /
    ``remaining_iterations`` / ``consume`` / ``at_entry`` /
    ``mark_entry_handled``) with the same float arithmetic and the same
    1e-9 advance tolerance, reading each step's iteration count from
    its visited segment, plus direct state (``pos`` / ``iters_done``)
    the batched executor reads and writes wholesale.
    """

    __slots__ = ("flat", "pos", "iters_done", "at_entry")

    def __init__(self, flat: FlatTrace):
        self.flat = flat
        self.pos = 0
        self.iters_done = 0.0
        self.at_entry = flat.n > 0

    @property
    def finished(self) -> bool:
        return self.pos >= self.flat.n

    @property
    def current(self) -> Optional[Segment]:
        if self.pos >= self.flat.n:
            return None
        return self.flat.segs[self.pos]

    @property
    def remaining_iterations(self) -> float:
        if self.pos >= self.flat.n:
            return 0.0
        return self.flat.segs[self.pos].iterations - self.iters_done

    def consume(self, iterations: float) -> None:
        """Consume *iterations* of the current step (TraceCursor
        semantics, including the 1e-9 tolerances)."""
        if self.pos >= self.flat.n:
            raise SimulationError("consume() on a finished trace")
        iters = self.flat.segs[self.pos].iterations
        remaining = iters - self.iters_done
        if iterations < 0 or iterations > remaining + 1e-9:
            raise SimulationError(
                f"cannot consume {iterations} of "
                f"{remaining} remaining iterations"
            )
        self.at_entry = False
        self.iters_done += iterations
        if iters - self.iters_done <= 1e-9:
            self.pos += 1
            self.iters_done = 0.0
            self.at_entry = self.pos < self.flat.n

    def mark_entry_handled(self) -> None:
        """Entry marks of the current step were processed."""
        self.at_entry = False


def make_cursor(trace: Trace):
    """A cursor over *trace*: flat when possible, tree walker otherwise."""
    from repro.sim.process import TraceCursor

    flat = flat_trace(trace)
    if flat is None:
        return TraceCursor(trace)
    return FlatCursor(flat)
