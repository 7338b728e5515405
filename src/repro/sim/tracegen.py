"""Trace generation: from programs to executable phase-level traces.

A benchmark's dynamic behaviour is derived from its program structure
plus a :class:`BehaviorSpec` giving loop trip counts.  The generator
performs a hierarchical expected-frequency analysis of each procedure's
CFG (loops collapsed into supernodes, conditional paths split equally,
calls folded or inlined) and emits a compact
:class:`~repro.sim.process.Trace`:

* loops that *alternate* between inner phases (nested loops or calls to
  loop-bearing procedures) are **expanded** into
  :class:`~repro.sim.process.Repeat` nodes so phase changes appear as
  separate trace segments — the behaviour phase-based tuning exploits;
* homogeneous loops are **collapsed** into a single segment with an
  aggregate per-iteration cost — the executor then skips over billions
  of cycles in O(1).

Phase marks from an :class:`~repro.instrument.rewriter.InstrumentedProgram`
are attached where the rewriter spliced them: on segment entries when
the mark guards the section from outside (loop/interval techniques), or
embedded with a per-iteration rate when the mark sits inside a collapsed
body (the naive basic-block technique, whose thrash cost this makes
visible).  The same generator run on the plain program yields a
structurally identical, mark-free trace, so baseline-vs-tuned
comparisons share the exact same dynamics.

Approximations (documented, deliberate): conditional branch paths are
weighted equally; loops entered with probability below
``EXPAND_FREQ_THRESHOLD`` are never expanded; expansion is capped by a
segment budget, beyond which a loop collapses.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.errors import SimulationError, WorkloadError
from repro.program.basic_block import NodeKind
from repro.program.callgraph import build_callgraph
from repro.program.cfg import CFG, cached_cfg
from repro.program.loops import Loop, find_loops
from repro.program.module import Program
from repro.sim.cost_model import CostModel, CostVector
from repro.sim.machine import MachineConfig
from repro.sim.memory import MemoryModel
from repro.sim.process import EmbeddedMark, MarkRef, Repeat, Segment, Trace

#: Loops entered with lower probability than this are never expanded.
EXPAND_FREQ_THRESHOLD = 0.75

#: Frequencies below this are treated as dead paths.
_EPS = 1e-9


@dataclass
class BehaviorSpec:
    """Dynamic behaviour parameters of one benchmark.

    Attributes:
        trip_counts: iterations per loop entry, keyed by ``(proc, label)``
            where *label* sits at the loop header (the natural way for a
            generator that labelled its loops), or directly by loop uid.
        default_trip: trip count for loops not listed.
        recursion_depth: how many times recursive call cycles are unrolled
            when aggregating costs.
        max_inline_depth: call-inlining depth for trace emission.
        segment_budget: cap on the number of trace steps an expanded loop
            may produce; larger loops are collapsed.
    """

    trip_counts: dict = field(default_factory=dict)
    default_trip: float = 50.0
    recursion_depth: int = 4
    max_inline_depth: int = 8
    segment_budget: int = 200_000

    def with_trips(self, **updates) -> "BehaviorSpec":
        """Copy with additional ``(proc, label) -> trips`` entries given
        as ``proc__label=count`` keyword arguments."""
        trips = dict(self.trip_counts)
        for key, value in updates.items():
            proc, _, label = key.partition("__")
            trips[(proc, label)] = value
        return BehaviorSpec(
            trips,
            self.default_trip,
            self.recursion_depth,
            self.max_inline_depth,
            self.segment_budget,
        )

    def key(self) -> tuple:
        """Hashable identity of the spec: equal keys, equal traces."""
        trips = sorted((repr(k), float(v)) for k, v in self.trip_counts.items())
        return (
            tuple(trips),
            self.default_trip,
            self.recursion_depth,
            self.max_inline_depth,
            self.segment_budget,
        )


class _ScopeItem:
    """A node of a collapsed scope DAG: a plain block or a loop supernode."""

    __slots__ = ("block", "loop")

    def __init__(self, block=None, loop=None):
        self.block = block
        self.loop = loop

    @property
    def key(self):
        if self.loop is not None:
            return ("loop", self.loop.uid)
        return ("block", self.block)


class AnalysisMemo:
    """The variant-invariant products trace generation reads.

    A procedure's loops and its collapsed scope DAGs (with their
    frequencies and topological order) depend on its CFG alone, and a
    block's costs on the program, machine and memory model alone: none
    depends on the marks a technique places.  So one memo can serve
    every generator that builds traces of the same programs.
    :class:`~repro.tuning.pipeline.PipelineCache` owns one and hands it
    to each generator it makes, so the stock trace and every Table 2
    variant of a program analyse the program once.  A generator made
    without one gets a private memo that dies with it.

    Three products are built once per benchmark and shared by all its
    variants:

    * **block cost vectors**, in the :meth:`cost_model` of each
      ``(machine, memory)``, per ``(program, block uid)``;
    * **scope cost totals**: the cost of one procedure call or one loop
      iteration, per ``(program, cost model, resolved trip counts,
      default trip, recursion depth)`` and then per ``(procedure, loop
      uid)``.  Costs never depend on marks, so generators compute only
      mark rates on top of them; for a recursive call cycle only the
      final unrolling round's totals are kept;
    * **tuned traces**, one per ``(program, machine, spec, placement)``,
      where the placement (:meth:`InstrumentedProgram.placement
      <repro.instrument.rewriter.InstrumentedProgram.placement>`) is all
      a generator reads of a marked program besides the program and its
      CFGs.  Variants whose techniques place the same marks share one
      :class:`~repro.sim.process.Trace`.

    Products are keyed weakly on the CFG or program object, so they go
    with the program and are never served to a new one.  Callers treat
    them as read-only.
    """

    def __init__(self) -> None:
        self._cost_models: dict = {}
        self._loops: "weakref.WeakKeyDictionary[CFG, list]" = (
            weakref.WeakKeyDictionary()
        )
        self._scopes: "weakref.WeakKeyDictionary[CFG, dict]" = (
            weakref.WeakKeyDictionary()
        )
        self._scope_costs: "weakref.WeakKeyDictionary[Program, dict]" = (
            weakref.WeakKeyDictionary()
        )
        self._traces: "weakref.WeakKeyDictionary[Program, dict]" = (
            weakref.WeakKeyDictionary()
        )

    def cost_model(
        self, machine: MachineConfig, memory: Optional[MemoryModel] = None
    ) -> CostModel:
        """The cost model of *machine* under *memory*; it memoizes block
        costs and cost vectors per program."""
        key = (machine, memory)
        model = self._cost_models.get(key)
        if model is None:
            model = self._cost_models[key] = CostModel(machine, memory)
        return model

    def loops(self, cfg: CFG) -> list:
        """:func:`~repro.program.loops.find_loops` of *cfg*."""
        loops = self._loops.get(cfg)
        if loops is None:
            loops = self._loops[cfg] = find_loops(cfg)
        return loops

    def scopes(self, cfg: CFG) -> dict:
        """Scope infos of *cfg* by enclosing loop uid (``None`` for the
        procedure scope), filled in by :meth:`TraceGenerator._scope_info`."""
        scopes = self._scopes.get(cfg)
        if scopes is None:
            scopes = self._scopes[cfg] = {}
        return scopes

    def scope_costs(self, program: Program, key: tuple) -> dict:
        """Cost totals of *program*'s scopes under *key* (cost model,
        resolved trips, default trip, recursion depth) by ``(procedure,
        loop uid or None)``, filled in by
        :meth:`TraceGenerator._aggregate_scope`."""
        by_key = self._scope_costs.get(program)
        if by_key is None:
            by_key = self._scope_costs[program] = {}
        costs = by_key.get(key)
        if costs is None:
            costs = by_key[key] = {}
        return costs

    def tuned_trace(
        self, instrumented, machine: MachineConfig, spec: Optional[BehaviorSpec]
    ) -> Trace:
        """The trace of *instrumented* under *spec* on *machine*, built
        once per mark placement.

        A marked program's CFGs are its program's (annotation builds
        them from the procedures whatever the typing), so the program,
        the spec and the placement determine the trace.
        """
        spec = spec or BehaviorSpec()
        key = (machine, spec.key(), instrumented.placement())
        traces = self._traces.get(instrumented.program)
        if traces is None:
            traces = self._traces[instrumented.program] = {}
        trace = traces.get(key)
        if trace is None:
            generator = TraceGenerator(machine, analysis=self)
            trace = traces[key] = generator.generate(instrumented, spec)
        return trace


class TraceGenerator:
    """Generates traces for one machine configuration.

    Args:
        machine: the machine whose core types costs are computed for.
        memory: the analytic memory model (the default when omitted).
        analysis: a memo of variant-invariant products to share with
            other generators; a private one when omitted.
    """

    def __init__(
        self,
        machine: MachineConfig,
        memory: Optional[MemoryModel] = None,
        analysis: Optional[AnalysisMemo] = None,
    ):
        self.machine = machine
        self.analysis = analysis if analysis is not None else AnalysisMemo()
        self.cost_model = self.analysis.cost_model(machine, memory)
        self._reset()

    def _reset(self) -> None:
        self._program: Optional[Program] = None
        self._instrumented = None
        self._spec: Optional[BehaviorSpec] = None
        self._cfgs: dict = {}
        self._loops: dict = {}
        self._trips: dict = {}
        self._agg_memo: dict = {}
        self._loop_memo: dict = {}
        self._scope_costs: Optional[dict] = None

    # -- public API ---------------------------------------------------------

    def generate(self, target, spec: Optional[BehaviorSpec] = None) -> Trace:
        """Generate the trace of *target* under *spec*.

        Args:
            target: a :class:`~repro.program.module.Program` or an
                :class:`~repro.instrument.rewriter.InstrumentedProgram`.
            spec: behaviour parameters; defaults apply when omitted.
        """
        self._reset()
        self._spec = spec or BehaviorSpec()
        if hasattr(target, "program") and hasattr(target, "mark_at_edge"):
            self._instrumented = target
            self._program = target.program
            self._cfgs = dict(target.aprog.cfgs)
        else:
            self._instrumented = None
            self._program = target
            self._cfgs = {p.name: cached_cfg(p) for p in target}
        self._loops = {
            name: self.analysis.loops(cfg) for name, cfg in self._cfgs.items()
        }
        self._resolve_trips()
        self._precompute_aggregates()

        nodes = self._emit_proc(
            self._program.entry, depth=0, budget=self._spec.segment_budget
        )
        if not nodes:
            raise WorkloadError(
                f"program {self._program.name!r} produced an empty trace"
            )
        trace = Trace(tuple(nodes))
        # Precompute every segment's flat per-core-type cost tuple here,
        # at trace-build time: traces are shared templates, so this work
        # happens once per benchmark instead of once per quantum.
        ctype_names = [ct.name for ct in self.machine.core_types()]
        for segment in trace.segments():
            for name in ctype_names:
                segment.cost_tuple(name)
        return trace

    def isolated_seconds(self, trace: Trace, ctype=None) -> float:
        """Wall time the trace takes alone on one core (fastest by
        default): the ``t_i`` of the stretch metric."""
        ctype = ctype or self.machine.core_types()[0]
        return trace.total_cycles(ctype.name) / ctype.freq_hz

    # -- setup --------------------------------------------------------------

    def _resolve_trips(self) -> None:
        """Resolve (proc, label) trip keys to loop uids."""
        self._trips = {}
        for key, trips in self._spec.trip_counts.items():
            if isinstance(key, str):
                self._trips[key] = float(trips)
                continue
            proc_name, label = key
            proc = self._program[proc_name]
            if label not in proc.labels:
                raise SimulationError(
                    f"trip count names unknown label {label!r} in "
                    f"{proc_name!r}"
                )
            start = proc.labels[label]
            loop = self._loop_with_header_start(proc_name, start)
            if loop is None:
                raise SimulationError(
                    f"label {label!r} in {proc_name!r} is not a loop header"
                )
            self._trips[loop.uid] = float(trips)

    def _loop_with_header_start(self, proc_name: str, start: int) -> Optional[Loop]:
        cfg = self._cfgs[proc_name]
        for loop in self._loops[proc_name]:
            if cfg.blocks[loop.header].start == start:
                return loop
        return None

    def _trip(self, loop: Loop) -> float:
        return self._trips.get(loop.uid, self._spec.default_trip)

    # -- collapsed scope DAGs -----------------------------------------------

    def _scope_dag(self, proc_name: str, within: Optional[Loop]):
        """Build the collapsed DAG of one scope.

        Returns (items, succs, entry_key) where items maps key -> item
        and succs maps key -> ordered list of (succ_key, original_edges).
        """
        cfg = self._cfgs[proc_name]
        if within is None:
            members = set(range(len(cfg.blocks)))
            sub_loops = [l for l in self._loops[proc_name] if l.parent is None]
            entry_block = 0
        else:
            members = set(within.body)
            sub_loops = within.children
            entry_block = within.header

        owner: dict[int, Loop] = {}
        for loop in sub_loops:
            for b in loop.body:
                owner[b] = loop

        items: dict = {}
        for b in sorted(members):
            loop = owner.get(b)
            if loop is None:
                item = _ScopeItem(block=b)
                items[item.key] = item
            else:
                key = ("loop", loop.uid)
                if key not in items:
                    items[key] = _ScopeItem(loop=loop)

        def lift(block: int):
            loop = owner.get(block)
            if loop is not None:
                return ("loop", loop.uid)
            return ("block", block)

        succs: dict = {key: [] for key in items}
        seen_edges: dict = {}
        for edge in cfg.edges:
            if edge.src not in members or edge.dst not in members:
                continue
            if within is not None and edge.dst == within.header:
                continue  # This scope's own back edges.
            src_key, dst_key = lift(edge.src), lift(edge.dst)
            if src_key == dst_key:
                continue  # Internal to a supernode.
            bucket = seen_edges.setdefault((src_key, dst_key), [])
            bucket.append((edge.src, edge.dst))
        for (src_key, dst_key), originals in seen_edges.items():
            succs[src_key].append((dst_key, originals))
        for key in succs:
            succs[key].sort(key=lambda s: str(s[0]))

        entry_key = lift(entry_block)
        return items, succs, entry_key

    def _scope_info(self, proc_name: str, within: Optional[Loop]):
        """Memoized (items, freq, order) of one scope.

        The scope's items, their frequencies and their topological order
        depend only on the procedure's CFG and loops, so they live in the
        :class:`AnalysisMemo`: aggregation rounds, emission and every
        other generator sharing the memo use one computation per scope.
        The DAG's edges are needed only to derive them and are not kept.
        Callers treat the returned structures as read-only.
        """
        scopes = self.analysis.scopes(self._cfgs[proc_name])
        key = within.uid if within is not None else None
        got = scopes.get(key)
        if got is None:
            items, succs, entry_key = self._scope_dag(proc_name, within)
            order = self._topo_order(items, succs, entry_key)
            freq = self._frequencies(items, succs, entry_key, order)
            got = (items, freq, order)
            scopes[key] = got
        return got

    @staticmethod
    def _frequencies(items, succs, entry_key, order) -> dict:
        """Expected executions of each item per scope execution.

        Propagates in topological *order*, splitting each item's
        frequency equally among its distinct successors.  Retreating
        edges of irreducible regions are ignored (DFS-order
        approximation).
        """
        position = {key: i for i, key in enumerate(order)}
        freq = {key: 0.0 for key in items}
        freq[entry_key] = 1.0
        for key in order:
            f = freq[key]
            if f <= _EPS:
                continue
            forward = [
                (dst, originals)
                for dst, originals in succs[key]
                if position.get(dst, -1) > position[key]
            ]
            if not forward:
                continue
            share = f / len(forward)
            for dst, _ in forward:
                freq[dst] += share
        return freq

    @staticmethod
    def _topo_order(items, succs, entry_key) -> list:
        """DFS postorder reversed: a topological order for DAGs, a
        consistent approximation otherwise."""
        seen = set()
        order = []
        stack = [(entry_key, iter([dst for dst, _ in succs[entry_key]]))]
        seen.add(entry_key)
        while stack:
            key, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter([dst for dst, _ in succs[nxt]])))
                    advanced = True
                    break
            if not advanced:
                order.append(key)
                stack.pop()
        order.reverse()
        return order

    # -- marks ---------------------------------------------------------------

    def _mark_on_edge(self, proc_name: str, src: int, dst: int):
        if self._instrumented is None:
            return None
        return self._instrumented.mark_at_edge(proc_name, src, dst)

    def _proc_entry_mark(self, proc_name: str):
        if self._instrumented is None:
            return None
        return self._instrumented.entry_mark(proc_name)

    def _section_entry_marks(self, proc_name: str, loop: Loop) -> list:
        """Marks on the edges entering *loop* from outside."""
        cfg = self._cfgs[proc_name]
        marks = []
        for src in cfg.preds(loop.header):
            if src in loop.body:
                continue
            mark = self._mark_on_edge(proc_name, src, loop.header)
            if mark is not None and mark not in marks:
                marks.append(mark)
        return marks

    # -- aggregation (collapse) ----------------------------------------------

    def _precompute_aggregates(self) -> None:
        """Aggregate procedure costs bottom-up; iterate recursive SCCs.

        Scope cost totals come from, and go to, the shared
        :meth:`AnalysisMemo.scope_costs` except in the non-final rounds
        of a recursive SCC, whose totals are provisional.
        """
        shared = self.analysis.scope_costs(
            self._program,
            (
                self.cost_model,
                tuple(sorted(self._trips.items())),
                self._spec.default_trip,
                self._spec.recursion_depth,
            ),
        )
        callgraph = build_callgraph(self._program, self._cfgs)
        for scc in callgraph.bottom_up_sccs():
            rounds = (
                self._spec.recursion_depth if callgraph.is_recursive(scc) else 1
            )
            for name in scc:
                self._agg_memo[name] = (
                    CostVector.zero(self.machine.core_types()),
                    {},
                )
            for round_ in range(rounds):
                self._scope_costs = shared if round_ == rounds - 1 else None
                for name in scc:
                    self._loop_memo = {
                        k: v
                        for k, v in self._loop_memo.items()
                        if not k.startswith(f"{name}@")
                    }
                    self._agg_memo[name] = self._aggregate_scope(name, None)
        self._scope_costs = shared

    def _aggregate_proc(self, proc_name: str):
        """(cost, mark rates) of one call to *proc_name*."""
        cached = self._agg_memo.get(proc_name)
        if cached is not None:
            return cached
        self._agg_memo[proc_name] = (
            CostVector.zero(self.machine.core_types()),
            {},
        )
        result = self._aggregate_scope(proc_name, None)
        self._agg_memo[proc_name] = result
        return result

    def _aggregate_loop(self, proc_name: str, loop: Loop):
        """(cost, mark rates) of ONE iteration of *loop*."""
        cached = self._loop_memo.get(loop.uid)
        if cached is not None:
            return cached
        result = self._aggregate_scope(proc_name, loop)
        self._loop_memo[loop.uid] = result
        return result

    def _aggregate_scope(self, proc_name: str, within: Optional[Loop]):
        """(cost, mark rates) of one execution of a scope.

        The cost is taken from the shared scope totals when they hold
        it; otherwise it is summed here (and stored there).  Rates are
        always summed: they are all that depends on the marks.
        """
        items, freq, _ = self._scope_info(proc_name, within)
        member_blocks = self._scope_members(proc_name, within)
        shared = self._scope_costs
        cost_key = (proc_name, within.uid if within is not None else None)
        total = shared.get(cost_key) if shared is not None else None
        summing = total is None
        if summing:
            total = CostVector.zero(self.machine.core_types())
        rates: dict = {}

        def add_rate(mark, rate: float) -> None:
            if rate > _EPS:
                rates[mark.mark_id] = rates.get(mark.mark_id, 0.0) + rate

        cfg = self._cfgs[proc_name]
        program = self._program
        for key, item in items.items():
            f = freq[key]
            if f <= _EPS:
                continue
            if item.loop is not None:
                loop = item.loop
                trips = self._trip(loop)
                inner_cost, inner_rates = self._aggregate_loop(proc_name, loop)
                if summing:
                    total.add(inner_cost, f * trips)
                for mark_id, rate in inner_rates.items():
                    rates[mark_id] = rates.get(mark_id, 0.0) + f * trips * rate
                for mark in self._section_entry_marks(proc_name, loop):
                    add_rate(mark, f)
            else:
                block = cfg.blocks[item.block]
                if summing:
                    total.add(self.cost_model.block_vector(block, program), f)
                if block.kind is NodeKind.CALL:
                    callee = block.call_target
                    if callee is not None and callee in program:
                        callee_cost, callee_rates = self._aggregate_proc(callee)
                        if summing:
                            total.add(callee_cost, f)
                        for mark_id, rate in callee_rates.items():
                            rates[mark_id] = rates.get(mark_id, 0.0) + f * rate
                        entry = self._proc_entry_mark(callee)
                        if entry is not None:
                            add_rate(entry, f)
                # Marks triggered by edges into this block from inside
                # the scope (edges from outside are the *scope's* entry
                # and belong to the caller's accounting).
                inside_preds = [
                    src for src in cfg.preds(item.block) if src in member_blocks
                ]
                for src in inside_preds:
                    mark = self._mark_on_edge(proc_name, src, item.block)
                    if mark is not None:
                        add_rate(mark, f / max(1, len(cfg.preds(item.block))))
        if summing and shared is not None:
            shared[cost_key] = total
        return total, rates

    # -- emission (expand) -----------------------------------------------------

    def _estimated_steps(self, proc_name: str, loop: Loop, budget: float) -> float:
        """Trace steps emitting *loop* under *budget* will produce.

        A loop with no phase-relevant structure (no child loops, no
        inlinable calls) collapses to a single segment; so does a loop
        whose expansion would blow the budget.
        """
        structured = loop.children or self._loop_contains_inlinable_call(
            proc_name, loop
        )
        if not structured:
            return 1.0
        trips = max(1.0, self._trip(loop))
        child_budget = budget / trips
        inner = sum(
            self._estimated_steps(proc_name, child, child_budget)
            for child in loop.children
        )
        inner += self._inlinable_call_steps(proc_name, loop)
        total = trips * (1.0 + inner)
        if total > budget:
            return 1.0  # Would collapse.
        return total

    def _inlinable_call_steps(self, proc_name: str, loop: Loop) -> float:
        """Rough step count contributed by calls inlined in *loop*'s body."""
        cfg = self._cfgs[proc_name]
        covered = set()
        for child in loop.children:
            covered.update(child.body)
        steps = 0.0
        for b in loop.body:
            if b in covered:
                continue
            block = cfg.blocks[b]
            if block.kind is NodeKind.CALL and block.call_target:
                callee = block.call_target
                if callee in self._program and self._callee_has_loops(callee):
                    outer_loops = sum(
                        1 for l in self._loops[callee] if l.parent is None
                    )
                    steps += 1.0 + outer_loops
        return steps

    def _callee_has_loops(self, callee: str) -> bool:
        return bool(self._loops.get(callee))

    def _emit_proc(self, proc_name: str, depth: int, budget: float) -> list:
        nodes = self._emit_scope(proc_name, None, depth, budget)
        entry = self._proc_entry_mark(proc_name)
        if entry is not None:
            nodes = self._with_entry_marks(nodes, [entry], f"{proc_name}:entry")
        return nodes

    def _with_entry_marks(self, nodes: list, marks: list, uid: str) -> list:
        """Attach marks so they fire once, before *nodes*."""
        ids = tuple(MarkRef(m.mark_id, m.phase_type) for m in marks)
        if nodes and isinstance(nodes[0], Segment) and nodes[0].iterations == 1:
            first = nodes[0]
            nodes[0] = Segment(
                first.uid,
                first.phase_type,
                first.iterations,
                first.cost,
                entry_marks=ids + first.entry_marks,
                embedded=first.embedded,
            )
            return nodes
        marker = Segment(
            uid,
            marks[0].phase_type if marks else None,
            1.0,
            CostVector.zero(self.machine.core_types()),
            entry_marks=ids,
        )
        return [marker] + nodes

    def _emit_scope(
        self, proc_name: str, within: Optional[Loop], depth: int, budget: float
    ) -> list:
        items, freq, order = self._scope_info(proc_name, within)
        member_blocks = self._scope_members(proc_name, within)
        cfg = self._cfgs[proc_name]
        program = self._program
        core_types = self.machine.core_types()
        scope_uid = within.uid if within else proc_name

        out: list = []
        pending_cost = CostVector.zero(core_types)
        pending_rates: dict = {}
        pending_entry_marks: list = []
        pending_count = [0]

        def add_pending_rate(mark_id: int, phase_type: int, rate: float) -> None:
            if rate <= _EPS:
                return
            prev = pending_rates.get(mark_id, (phase_type, 0.0))
            pending_rates[mark_id] = (phase_type, prev[1] + rate)

        def flush(tag: str) -> None:
            if pending_count[0] == 0:
                return
            embedded = tuple(
                EmbeddedMark(mid, ptype, rate)
                for mid, (ptype, rate) in sorted(pending_rates.items())
            )
            entry_ids = tuple(
                MarkRef(m.mark_id, m.phase_type) for m in pending_entry_marks
            )
            ptype = (
                pending_entry_marks[0].phase_type if pending_entry_marks else None
            )
            out.append(
                Segment(
                    f"{scope_uid}/{tag}",
                    ptype,
                    1.0,
                    pending_cost.scaled(1.0),
                    entry_marks=entry_ids,
                    embedded=embedded,
                )
            )
            pending_cost.instrs = 0.0
            for name in pending_cost.compute:
                pending_cost.compute[name] = 0.0
                pending_cost.stall[name] = 0.0
            pending_rates.clear()
            pending_entry_marks.clear()
            pending_count[0] = 0

        def fold_block(item: _ScopeItem, f: float) -> None:
            block = cfg.blocks[item.block]
            pending_cost.add(self.cost_model.block_vector(block, program), f)
            pending_count[0] += 1
            inside = [s_ for s_ in cfg.preds(item.block) if s_ in member_blocks]
            for src in inside:
                mark = self._mark_on_edge(proc_name, src, item.block)
                if mark is not None:
                    if f >= EXPAND_FREQ_THRESHOLD and mark not in pending_entry_marks:
                        pending_entry_marks.append(mark)
                    else:
                        add_pending_rate(
                            mark.mark_id,
                            mark.phase_type,
                            f / max(1, len(cfg.preds(item.block))),
                        )

        def fold_call(block, f: float) -> None:
            callee = block.call_target
            callee_cost, callee_rates = self._aggregate_proc(callee)
            pending_cost.add(callee_cost, f)
            pending_count[0] += 1
            for mark_id, rate in callee_rates.items():
                add_pending_rate(mark_id, _mark_phase(self._instrumented, mark_id), f * rate)
            entry = self._proc_entry_mark(callee)
            if entry is not None:
                add_pending_rate(entry.mark_id, entry.phase_type, f)

        def collapse_loop(loop: Loop, f: float) -> None:
            flush("pre")
            trips = self._trip(loop)
            cost, rates = self._aggregate_loop(proc_name, loop)
            embedded = tuple(
                EmbeddedMark(mid, _mark_phase(self._instrumented, mid), rate)
                for mid, rate in sorted(rates.items())
            )
            marks = self._section_entry_marks(proc_name, loop)
            ptype = marks[0].phase_type if marks else None
            out.append(
                Segment(
                    loop.uid,
                    ptype,
                    trips * f,
                    cost,
                    entry_marks=tuple(MarkRef(m.mark_id, m.phase_type) for m in marks),
                    embedded=embedded,
                )
            )

        for key in order:
            item = items[key]
            f = freq[key]
            if f <= _EPS:
                continue
            if item.loop is not None:
                loop = item.loop
                trips = self._trip(loop)
                steps = self._estimated_steps(proc_name, loop, budget)
                expandable = f >= EXPAND_FREQ_THRESHOLD and steps > 1.0
                if expandable:
                    flush("pre")
                    children = self._emit_scope(
                        proc_name, loop, depth, budget / max(1.0, trips)
                    )
                    marks = self._section_entry_marks(proc_name, loop)
                    rep = Repeat(tuple(children), int(round(trips)))
                    if marks:
                        out.extend(
                            self._with_entry_marks([rep], marks, f"{loop.uid}:entry")
                        )
                    else:
                        out.append(rep)
                else:
                    collapse_loop(loop, f)
                continue

            block = cfg.blocks[item.block]
            if (
                block.kind is NodeKind.CALL
                and block.call_target
                and block.call_target in program
                and self._callee_has_loops(block.call_target)
                and f >= EXPAND_FREQ_THRESHOLD
                and depth < self._spec.max_inline_depth
            ):
                pending_cost.add(self.cost_model.block_vector(block, program), f)
                pending_count[0] += 1
                flush("pre")
                out.extend(
                    self._emit_proc(block.call_target, depth + 1, budget)
                )
            elif block.kind is NodeKind.CALL and block.call_target in program:
                pending_cost.add(self.cost_model.block_vector(block, program), f)
                fold_call(block, f)
            else:
                fold_block(item, f)

        flush("post")
        return out

    def _scope_members(self, proc_name: str, within: Optional[Loop]) -> set:
        """Original block indices belonging to a scope."""
        if within is not None:
            return set(within.body)
        return set(range(len(self._cfgs[proc_name].blocks)))

    def _loop_contains_inlinable_call(self, proc_name: str, loop: Loop) -> bool:
        cfg = self._cfgs[proc_name]
        for b in loop.body:
            block = cfg.blocks[b]
            if block.kind is NodeKind.CALL and block.call_target:
                callee = block.call_target
                if callee in self._program and self._callee_has_loops(callee):
                    return True
        return False


def _mark_phase(instrumented, mark_id: int) -> int:
    """Phase type a mark announces (via the instrumented index)."""
    if instrumented is None:
        return 0
    return instrumented.marks[mark_id].phase_type
