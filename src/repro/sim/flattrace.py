"""Flat trace representation for the batched executor.

A :class:`~repro.sim.process.Trace` is a tree of segments and repeats;
the stepped executor walks it one segment-step at a time through a
:class:`~repro.sim.process.TraceCursor`.  This module flattens the tree
once per trace into parallel per-step lists — one entry per *visit* of a
segment, in exactly the order the cursor would produce — so the
executor's quantum loop indexes any step in O(1) and keeps the cursor
state in a position and an iteration count.  The lists are plain Python
lists: the loop is scalar, and a quantum rarely spans enough steps for
array arithmetic to repay its per-call overhead.

Flattening is capped (:data:`FLATTEN_LIMIT` steps): traces whose repeat
structure expands beyond the cap — possible only for hand-built
pathological traces, not generator output — keep the tree walker.

The lists are a pure cache over the trace (cached on
``Trace._flat``, excluded from equality and pickling); every float in
them is taken verbatim from ``Segment.cost_tuple``, so the batched and
stepped executors see bit-identical per-step costs.
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


class FlatTrace:
    """Parallel per-step lists of one trace (shared, read-only)."""

    __slots__ = (
        "n",
        "segs",
        "iters",
        "instrs",
        "compute",
        "stall",
        "l2",
        "sfrac",
        "ovh",
        "entry_marked",
        "any_marked",
        "emb_multi",
        "cols",
        "fastinfo",
    )

    def __init__(self, steps: list, ctype_names) -> None:
        n = len(steps)
        self.n = n
        self.segs = steps
        self.iters = [seg.iterations for seg in steps]
        self.instrs = [seg.cost.instrs for seg in steps]
        # Embedded-mark overhead per iteration under a runtime-less
        # simulation (the only mode that batches embedded steps); the
        # identical expression to Simulation._embedded_overhead.
        self.ovh = [
            seg.embedded_rate * MARK_FIRE_CYCLES if seg.embedded else 0.0
            for seg in steps
        ]
        self.entry_marked = [bool(seg.entry_marks) for seg in steps]
        self.any_marked = [
            bool(seg.entry_marks or seg.embedded) for seg in steps
        ]
        # Steps with two or more embedded marks: only these can thrash
        # between decided core types, so only these need the full
        # Simulation._embedded_overhead computation under a runtime.
        self.emb_multi = [len(seg.embedded) > 1 for seg in steps]

        self.compute = {}
        self.stall = {}
        self.l2 = {}
        self.sfrac = {}
        self.cols = {}
        self.fastinfo = {}
        for name in ctype_names:
            comp = [0.0] * n
            stall = [0.0] * n
            l2 = [0.0] * n
            sfrac = [0.0] * n
            for i, seg in enumerate(steps):
                comp[i], stall[i], l2[i], _, sfrac[i] = seg.cost_tuple(name)
            self.compute[name] = comp
            self.stall[name] = stall
            self.l2[name] = l2
            self.sfrac[name] = sfrac
            # Everything the executor's quantum prologue needs, bundled
            # behind one dict lookup (the ctype-independent views are
            # duplicated references — free — so the prologue is a
            # single fetch + unpack instead of a dozen lookups).
            self.cols[name] = (
                self.segs,
                self.iters,
                self.instrs,
                self.ovh,
                self.entry_marked,
                self.any_marked,
                self.emb_multi,
                comp,
                stall,
                l2,
                sfrac,
            )
            # Row-major per-step tuples for the executor's mid-step
            # resume fast path (the overwhelmingly common quantum
            # shape): it touches exactly one step, so one tuple index +
            # unpack replaces eight column indexings.
            self.fastinfo[name] = list(
                zip(
                    self.iters,
                    self.instrs,
                    self.ovh,
                    self.emb_multi,
                    comp,
                    stall,
                    l2,
                    sfrac,
                )
            )


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
    1e-9 advance tolerance, plus direct state (``pos`` / ``iters_done``)
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
        return self.flat.iters[self.pos] - self.iters_done

    def consume(self, iterations: float) -> None:
        """Consume *iterations* of the current step (TraceCursor
        semantics, including the 1e-9 tolerances)."""
        if self.pos >= self.flat.n:
            raise SimulationError("consume() on a finished trace")
        remaining = self.flat.iters[self.pos] - self.iters_done
        if iterations < 0 or iterations > remaining + 1e-9:
            raise SimulationError(
                f"cannot consume {iterations} of "
                f"{remaining} remaining iterations"
            )
        self.at_entry = False
        self.iters_done += iterations
        if self.flat.iters[self.pos] - self.iters_done <= 1e-9:
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
