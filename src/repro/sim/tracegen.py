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
visible).  The analysis and emission run once per program and spec,
into a :class:`TraceSkeleton` that records where marks could sit;
each trace lays one mark placement onto it.  The plain program is the
empty placement, so its trace is structurally identical and mark-free,
and baseline-vs-tuned comparisons share the exact same dynamics.

Approximations (documented, deliberate): conditional branch paths are
weighted equally; loops entered with probability below
``EXPAND_FREQ_THRESHOLD`` are never expanded; expansion is capped by a
segment budget, beyond which a loop collapses.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional

from repro.errors import SimulationError, WorkloadError
from repro.analysis.annotate import StaticAnalyses
from repro.program.basic_block import NodeKind
from repro.program.cfg import CFG, cached_cfg
from repro.program.loops import Loop
from repro.program.module import Program
from repro.sim.cost_model import CostModel, CostVector
from repro.sim.machine import MachineConfig
from repro.sim.memory import MemoryModel
from repro.sim.process import EmbeddedMark, MarkRef, Repeat, Segment, Trace

#: Loops entered with lower probability than this are never expanded.
EXPAND_FREQ_THRESHOLD = 0.75

#: Frequencies below this are treated as dead paths.
_EPS = 1e-9


@dataclass(frozen=True)
class BehaviorSpec:
    """Dynamic behaviour parameters of one benchmark.

    A spec is immutable (``trip_counts`` is a read-only copy of the
    mapping it was made with), so its :meth:`key` and
    :attr:`fingerprint` are computed once per object.

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

    trip_counts: Mapping = field(default_factory=dict)
    default_trip: float = 50.0
    recursion_depth: int = 4
    max_inline_depth: int = 8
    segment_budget: int = 200_000

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "trip_counts", MappingProxyType(dict(self.trip_counts))
        )

    def __reduce__(self):
        return (
            BehaviorSpec,
            (
                dict(self.trip_counts),
                self.default_trip,
                self.recursion_depth,
                self.max_inline_depth,
                self.segment_budget,
            ),
        )

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
        return self._key

    @cached_property
    def _key(self) -> tuple:
        trips = sorted((repr(k), float(v)) for k, v in self.trip_counts.items())
        return (
            tuple(trips),
            self.default_trip,
            self.recursion_depth,
            self.max_inline_depth,
            self.segment_budget,
        )

    @cached_property
    def fingerprint(self) -> str:
        """sha256 content digest of the spec, its part of pipeline cache
        keys.  Persisted cache refs are named by it, so the string must
        stay the same for the same spec."""
        trips = sorted((str(k), float(v)) for k, v in self.trip_counts.items())
        h = hashlib.sha256()
        for part in (
            repr(trips),
            f"{self.default_trip}:{self.recursion_depth}:"
            f"{self.max_inline_depth}:{self.segment_budget}",
        ):
            h.update(part.encode("utf-8"))
            h.update(b"\x00")
        return h.hexdigest()


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
    """The variant-invariant products of the static pipeline.

    None of these depends on the marks a technique places, so one memo
    can serve every generator that builds traces of the same programs
    and every technique that marks them.
    :class:`~repro.tuning.pipeline.PipelineCache` owns one, annotates
    programs with its :attr:`static` analyses and hands it to each
    generator it makes; a generator made without one gets a private
    memo that dies with it.

    * **static analyses** (:attr:`static`, a
      :class:`~repro.analysis.annotate.StaticAnalyses`): each CFG's
      loops and intervals, each program's call graph, and the interval
      summaries, loop summary and basic-block sections per typing that
      the marking techniques filter by their thresholds;
    * **scope DAGs** of each CFG, collapsed, with their frequencies and
      topological order;
    * **block cost vectors**, in the :meth:`cost_model` of each
      ``(machine, memory)``, per ``(program, block uid)``;
    * **trace skeletons**, one per ``(program, cost model,
      BehaviorSpec.key())`` (:meth:`skeleton`).  A skeleton is the
      result of the one structural walk of a program: every scope's
      cost total, the emitted node structure (segments, repeats, loop
      collapse and expansion, flush points) with each segment's
      ``CostVector`` and per-core-type cost tuples, and the ordered
      *mark sites* the walk consults: edges, loop entries and folded
      calls, each with the frequency weight a mark there gets.  The
      stock trace and every Table 2 variant of a program are laid onto
      it; a placement only resolves the sites against its mark
      indices, and a segment that resolves no mark is the skeleton's
      own object;
    * **tuned traces**, one per ``(program, machine, spec, placement)``,
      where the placement (:meth:`InstrumentedProgram.placement
      <repro.instrument.rewriter.InstrumentedProgram.placement>`) is all
      a generator reads of a marked program besides the program and its
      CFGs.  Variants whose techniques place the same marks share one
      :class:`~repro.sim.process.Trace`.

    The walk is what a trace cost, not the marks: with the other
    products warm, a mark-free trace took 1.19 ms per program and a
    tuned one 1.30 ms per placement when every trace walked its program
    (the 15 seed-1 ``fairness-paper`` programs and their 167 placements,
    2-vCPU host).  Laid onto a skeleton, a placement takes 0.14 ms.

    Products are keyed weakly on the CFG or program object, so they go
    with the program and are never served to a new one.  Callers treat
    them as read-only.
    """

    def __init__(self) -> None:
        self.static = StaticAnalyses()
        self._cost_models: dict = {}
        self._scopes: "weakref.WeakKeyDictionary[CFG, dict]" = (
            weakref.WeakKeyDictionary()
        )
        self._skeletons: "weakref.WeakKeyDictionary[Program, dict]" = (
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

    def scopes(self, cfg: CFG) -> dict:
        """Scope infos of *cfg* by enclosing loop uid (``None`` for the
        procedure scope), filled in by :meth:`_SkeletonBuilder._scope_info`."""
        scopes = self._scopes.get(cfg)
        if scopes is None:
            scopes = self._scopes[cfg] = {}
        return scopes

    def skeleton(
        self, program: Program, cost_model: CostModel, spec: BehaviorSpec
    ) -> "TraceSkeleton":
        """The skeleton of *program*'s traces under *cost_model* and
        *spec*, built once."""
        by_key = self._skeletons.get(program)
        if by_key is None:
            by_key = self._skeletons[program] = {}
        key = (cost_model, spec.key())
        skeleton = by_key.get(key)
        if skeleton is None:
            builder = _SkeletonBuilder(program, cost_model, spec, self)
            skeleton = by_key[key] = builder.build()
        return skeleton

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

    def generate(self, target, spec: Optional[BehaviorSpec] = None) -> Trace:
        """Generate the trace of *target* under *spec*.

        Args:
            target: a :class:`~repro.program.module.Program` or an
                :class:`~repro.instrument.rewriter.InstrumentedProgram`.
            spec: behaviour parameters; defaults apply when omitted.
        """
        spec = spec or BehaviorSpec()
        if hasattr(target, "program") and hasattr(target, "mark_indices"):
            instrumented, program = target, target.program
        else:
            instrumented, program = None, target
        skeleton = self.analysis.skeleton(program, self.cost_model, spec)
        nodes = skeleton.nodes(instrumented)
        if not nodes:
            raise WorkloadError(f"program {program.name!r} produced an empty trace")
        return Trace(tuple(nodes))

    def isolated_seconds(self, trace: Trace, ctype=None) -> float:
        """Wall time the trace takes alone on one core (fastest by
        default): the ``t_i`` of the stretch metric."""
        ctype = ctype or self.machine.core_types()[0]
        return trace.total_cycles(ctype.name) / ctype.freq_hz


# Kinds of mark sites, the places where a mark changes a trace.  Scope
# sites give a scope's mark rates per execution, in the order the
# aggregation adds them:
#   (_EDGE, edge key, rate)            an edge inside the scope;
#   (_LOOP, loop uid, f*trips)         a loop's rates, scaled;
#   (_SECTION, edge keys, f)           the edges entering a loop;
#   (_CALL, callee, f)                 a callee's rates and entry mark.
# Group sites set a folded segment's marks, in the order emission folds:
#   (_BLOCK_EDGE, edge key, rate, f >= EXPAND_FREQ_THRESHOLD)
#                                      an edge into a folded block: an
#                                      entry mark if frequent, else a rate;
#   (_CALL, callee, f)                 as above, as embedded rates.
# An edge key is ``(proc, src, dst)``, the key of the mark index.
_EDGE, _LOOP, _SECTION, _CALL, _BLOCK_EDGE = range(5)


class _Group:
    """A run of folded blocks and calls, flushed into one segment."""

    __slots__ = ("segment", "sites")

    def __init__(self, segment: Segment, sites: tuple):
        self.segment = segment
        self.sites = sites

    @property
    def stock(self) -> tuple:
        return (self.segment,)

    def replay(self, placement: "_Placement", out: list) -> None:
        segment = self.segment
        entry_marks: list = []
        pending: dict = {}
        for site in self.sites:
            if site[0] == _BLOCK_EDGE:
                mark = placement.edges.get(site[1])
                if mark is None:
                    continue
                if site[3] and mark not in entry_marks:
                    entry_marks.append(mark)
                else:
                    _add_pending(pending, mark.mark_id, mark.phase_type, site[2])
            else:
                _, callee, f = site
                for mark_id, rate in placement.proc_rates[callee].items():
                    _add_pending(pending, mark_id, placement.phase(mark_id), f * rate)
                entry = placement.entries.get(callee)
                if entry is not None:
                    _add_pending(pending, entry.mark_id, entry.phase_type, f)
        if not entry_marks and not pending:
            out.append(segment)
            return
        embedded = tuple(
            EmbeddedMark(mark_id, ptype, rate)
            for mark_id, (ptype, rate) in sorted(pending.items())
        )
        phase_type = entry_marks[0].phase_type if entry_marks else None
        out.append(_marked(segment, phase_type, _refs(entry_marks), embedded))


class _Collapsed:
    """A loop collapsed into one segment of ``trips * f`` iterations."""

    __slots__ = ("segment", "proc", "loop_uid", "entry_edges")

    def __init__(self, segment: Segment, proc: str, loop_uid: str, entry_edges):
        self.segment = segment
        self.proc = proc
        self.loop_uid = loop_uid
        self.entry_edges = entry_edges

    @property
    def stock(self) -> tuple:
        return (self.segment,)

    def replay(self, placement: "_Placement", out: list) -> None:
        segment = self.segment
        rates = placement.loop_rates(self.proc, self.loop_uid)
        marks = placement.section_marks(self.entry_edges)
        if not rates and not marks:
            out.append(segment)
            return
        embedded = tuple(
            EmbeddedMark(mark_id, placement.phase(mark_id), rate)
            for mark_id, rate in sorted(rates.items())
        )
        phase_type = marks[0].phase_type if marks else None
        out.append(_marked(segment, phase_type, _refs(marks), embedded))


class _Expanded:
    """A loop expanded into a :class:`Repeat` of its scope's nodes."""

    __slots__ = ("ops", "repeat", "entry_edges", "marker_uid")

    def __init__(self, ops: tuple, count: int, entry_edges, marker_uid: str):
        self.ops = ops
        self.repeat = Repeat(tuple(_stock(ops)), count)
        self.entry_edges = entry_edges
        self.marker_uid = marker_uid

    @property
    def stock(self) -> tuple:
        return (self.repeat,)

    def replay(self, placement: "_Placement", out: list) -> None:
        children: list = []
        for op in self.ops:
            op.replay(placement, children)
        repeat = self.repeat
        if len(children) != len(repeat.children) or any(
            new is not old for new, old in zip(children, repeat.children)
        ):
            repeat = Repeat(tuple(children), repeat.count)
        marks = placement.section_marks(self.entry_edges)
        if marks:
            out.append(placement.marker(marks, self.marker_uid))
        out.append(repeat)


class _Call:
    """A procedure's scope emitted in place: the program entry or an
    inlined call."""

    __slots__ = ("proc", "ops", "marker_uid")

    def __init__(self, proc: str, ops: tuple):
        self.proc = proc
        self.ops = ops
        self.marker_uid = f"{proc}:entry"

    @property
    def stock(self) -> tuple:
        return tuple(_stock(self.ops))

    def replay(self, placement: "_Placement", out: list) -> None:
        nodes: list = []
        for op in self.ops:
            op.replay(placement, nodes)
        entry = placement.entries.get(self.proc)
        if entry is not None:
            # The entry mark fires once, before the procedure's nodes:
            # on its first segment when that runs once, else on a
            # marker of its own.
            first = nodes[0] if nodes else None
            if isinstance(first, Segment) and first.iterations == 1:
                refs = _refs([entry]) + first.entry_marks
                nodes[0] = _marked(first, first.phase_type, refs, first.embedded)
            else:
                nodes.insert(0, placement.marker([entry], self.marker_uid))
        out.extend(nodes)


def _stock(ops) -> list:
    """The nodes *ops* emit under the empty placement."""
    return [node for op in ops for node in op.stock]


def _refs(marks) -> tuple:
    return tuple(MarkRef(m.mark_id, m.phase_type) for m in marks)


def _marked(
    segment: Segment, phase_type, entry_marks: tuple, embedded: tuple
) -> Segment:
    """A copy of *segment* with marks, sharing its cost and cost tuples."""
    return Segment(
        segment.uid,
        phase_type,
        segment.iterations,
        segment.cost,
        entry_marks=entry_marks,
        embedded=embedded,
        _cost_tuples=segment._cost_tuples,
    )


def _add_pending(pending: dict, mark_id: int, phase_type: int, rate: float) -> None:
    """Add *rate* firings of a mark to a folded segment's embedded rates."""
    if rate <= _EPS:
        return
    prev = pending.get(mark_id, (phase_type, 0.0))
    pending[mark_id] = (phase_type, prev[1] + rate)


class TraceSkeleton:
    """Everything of a program's traces that no mark placement changes.

    Built by one structural walk of the program under one cost model
    and spec (:class:`_SkeletonBuilder`), it holds the emitted node
    structure as a tree of ops with their segments, costs and cost
    tuples, plus the ordered mark sites of every aggregated scope.
    :meth:`nodes` lays a placement onto it.

    Attributes:
        sccs: ``(procedures, rounds)`` of each call-graph SCC, callees
            first; a recursive SCC's rates are unrolled for ``rounds``
            rounds, as its costs were.
        sites: scope sites by ``(procedure, loop uid or None)``.
        root: the program entry's :class:`_Call`.
        marker: a one-iteration, zero-cost segment whose cost and cost
            tuples entry-mark markers share.
    """

    __slots__ = ("sccs", "sites", "root", "marker")

    def __init__(self, sccs: tuple, sites: dict, root: _Call, marker: Segment):
        self.sccs = sccs
        self.sites = sites
        self.root = root
        self.marker = marker

    def nodes(self, instrumented) -> list:
        """The trace nodes under *instrumented*'s placement; with
        ``None``, the stock trace's: the skeleton's own nodes."""
        out: list = []
        self.root.replay(_Placement(self, instrumented), out)
        return out


class _Placement:
    """One mark placement resolved against a skeleton.

    Mark rates of every scope are summed first, SCC by SCC and round by
    round as the costs were, then the emission ops read them.  Sites
    resolve in the order the walk passed them, so each mark's rate adds
    its contributions in walk order.
    """

    __slots__ = ("skeleton", "edges", "entries", "marks", "proc_rates", "_loop_rates")

    def __init__(self, skeleton: TraceSkeleton, instrumented) -> None:
        self.skeleton = skeleton
        if instrumented is None:
            self.edges, self.entries, self.marks = {}, {}, ()
        else:
            self.edges, self.entries = instrumented.mark_indices()
            self.marks = instrumented.marks
        self.proc_rates: dict = {}
        self._loop_rates: dict = {}
        for scc, rounds in skeleton.sccs:
            for name in scc:
                self.proc_rates[name] = {}
            for _ in range(rounds):
                for name in scc:
                    self._loop_rates[name] = {}
                    self.proc_rates[name] = self._scope_rates(name, None)

    def phase(self, mark_id: int) -> int:
        """Phase type a mark announces."""
        return self.marks[mark_id].phase_type

    def loop_rates(self, proc_name: str, loop_uid: str) -> dict:
        """Mark rates of one iteration of a loop."""
        memo = self._loop_rates.setdefault(proc_name, {})
        rates = memo.get(loop_uid)
        if rates is None:
            rates = memo[loop_uid] = self._scope_rates(proc_name, loop_uid)
        return rates

    def section_marks(self, entry_edges) -> list:
        """Distinct marks on the edges entering a loop, in edge order."""
        marks: list = []
        for key in entry_edges:
            mark = self.edges.get(key)
            if mark is not None and mark not in marks:
                marks.append(mark)
        return marks

    def marker(self, marks: list, uid: str) -> Segment:
        """A zero-cost segment firing *marks* once."""
        template = self.skeleton.marker
        return Segment(
            uid,
            marks[0].phase_type,
            1.0,
            template.cost,
            entry_marks=_refs(marks),
            _cost_tuples=template._cost_tuples,
        )

    def _scope_rates(self, proc_name: str, loop_uid: Optional[str]) -> dict:
        """Mark firings per execution of a scope, by mark id."""
        rates: dict = {}
        edges = self.edges
        for site in self.skeleton.sites[proc_name, loop_uid]:
            kind = site[0]
            if kind == _EDGE:
                mark = edges.get(site[1])
                if mark is not None:
                    rates[mark.mark_id] = rates.get(mark.mark_id, 0.0) + site[2]
            elif kind == _LOOP:
                _, uid, scale = site
                for mark_id, rate in self.loop_rates(proc_name, uid).items():
                    rates[mark_id] = rates.get(mark_id, 0.0) + scale * rate
            elif kind == _SECTION:
                f = site[2]
                for mark in self.section_marks(site[1]):
                    rates[mark.mark_id] = rates.get(mark.mark_id, 0.0) + f
            else:
                _, callee, f = site
                for mark_id, rate in self.proc_rates[callee].items():
                    rates[mark_id] = rates.get(mark_id, 0.0) + f * rate
                entry = self.entries.get(callee)
                if entry is not None:
                    rates[entry.mark_id] = rates.get(entry.mark_id, 0.0) + f
        return rates


class _SkeletonBuilder:
    """The one structural walk of a program under a cost model and spec.

    Procedure costs are aggregated bottom-up over the call graph, with
    recursive SCCs unrolled for ``recursion_depth`` rounds; then the
    entry procedure's trace structure is emitted.  The walk records the
    mark sites it passes instead of looking marks up.  Sites that can
    never add a mark are not recorded: scope edges whose rate is at most
    ``_EPS`` (aggregation drops such rates), the entry of a loop that no
    outside edge enters, and loops with no sites of their own.
    """

    def __init__(
        self,
        program: Program,
        cost_model: CostModel,
        spec: BehaviorSpec,
        analysis: AnalysisMemo,
    ):
        self.program = program
        self.cost_model = cost_model
        self.spec = spec
        self.analysis = analysis
        self.core_types = cost_model.machine.core_types()
        self.cfgs = {p.name: cached_cfg(p) for p in program}
        self.loops = {
            name: analysis.static.loops(cfg) for name, cfg in self.cfgs.items()
        }
        self.trips = self._resolve_trips()
        self.proc_costs: dict = {}
        self.loop_costs: dict = {}
        self.sites: dict = {}

    def build(self) -> TraceSkeleton:
        callgraph = self.analysis.static.callgraph(self.program)
        sccs = []
        for scc in callgraph.bottom_up_sccs():
            rounds = self.spec.recursion_depth if callgraph.is_recursive(scc) else 1
            for name in scc:
                self.proc_costs[name] = CostVector.zero(self.core_types)
            for _ in range(rounds):
                for name in scc:
                    self.loop_costs[name] = {}
                    self.proc_costs[name] = self._aggregate_scope(name, None)
            sccs.append((tuple(scc), rounds))
        root = self._emit_proc(self.program.entry, 0, self.spec.segment_budget)
        marker = self._segment("", 1.0, CostVector.zero(self.core_types))
        return TraceSkeleton(tuple(sccs), self.sites, root, marker)

    def _segment(self, uid: str, iterations: float, cost: CostVector) -> Segment:
        """A mark-free segment with its cost tuples precomputed: traces
        are shared templates, so this happens once per skeleton instead
        of once per quantum."""
        segment = Segment(uid, None, iterations, cost)
        for ctype in self.core_types:
            segment.cost_tuple(ctype.name)
        return segment

    # -- setup --------------------------------------------------------------

    def _resolve_trips(self) -> dict:
        """Resolve (proc, label) trip keys to loop uids."""
        trips = {}
        for key, count in self.spec.trip_counts.items():
            if isinstance(key, str):
                trips[key] = float(count)
                continue
            proc_name, label = key
            proc = self.program[proc_name]
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
            trips[loop.uid] = float(count)
        return trips

    def _loop_with_header_start(self, proc_name: str, start: int) -> Optional[Loop]:
        cfg = self.cfgs[proc_name]
        for loop in self.loops[proc_name]:
            if cfg.blocks[loop.header].start == start:
                return loop
        return None

    def _trip(self, loop: Loop) -> float:
        return self.trips.get(loop.uid, self.spec.default_trip)

    # -- collapsed scope DAGs -----------------------------------------------

    def _scope_dag(self, proc_name: str, within: Optional[Loop]):
        """Build the collapsed DAG of one scope.

        Returns (items, succs, entry_key) where items maps key -> item
        and succs maps key -> ordered list of (succ_key, original_edges).
        """
        cfg = self.cfgs[proc_name]
        if within is None:
            members = set(range(len(cfg.blocks)))
            sub_loops = [l for l in self.loops[proc_name] if l.parent is None]
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
        other skeleton sharing the memo use one computation per scope.
        The DAG's edges are needed only to derive them and are not kept.
        Callers treat the returned structures as read-only.
        """
        scopes = self.analysis.scopes(self.cfgs[proc_name])
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

    def _scope_members(self, proc_name: str, within: Optional[Loop]) -> set:
        """Original block indices belonging to a scope."""
        if within is not None:
            return set(within.body)
        return set(range(len(self.cfgs[proc_name].blocks)))

    def _entry_edges(self, proc_name: str, loop: Loop) -> tuple:
        """Keys of the edges entering *loop* from outside, in
        predecessor order."""
        cfg = self.cfgs[proc_name]
        return tuple(
            (proc_name, src, loop.header)
            for src in cfg.preds(loop.header)
            if src not in loop.body
        )

    # -- aggregation (collapse) ----------------------------------------------

    def _aggregate_loop(self, proc_name: str, loop: Loop) -> CostVector:
        """Cost of ONE iteration of *loop*."""
        costs = self.loop_costs.setdefault(proc_name, {})
        cost = costs.get(loop.uid)
        if cost is None:
            cost = costs[loop.uid] = self._aggregate_scope(proc_name, loop)
        return cost

    def _aggregate_scope(self, proc_name: str, within: Optional[Loop]) -> CostVector:
        """Cost of one execution of a scope; records its mark sites."""
        items, freq, _ = self._scope_info(proc_name, within)
        members = self._scope_members(proc_name, within)
        cfg = self.cfgs[proc_name]
        program = self.program
        total = CostVector.zero(self.core_types)
        sites: list = []
        for key, item in items.items():
            f = freq[key]
            if f <= _EPS:
                continue
            if item.loop is not None:
                loop = item.loop
                scale = f * self._trip(loop)
                total.add(self._aggregate_loop(proc_name, loop), scale)
                if self.sites[proc_name, loop.uid]:
                    sites.append((_LOOP, loop.uid, scale))
                entry_edges = self._entry_edges(proc_name, loop)
                if entry_edges:
                    sites.append((_SECTION, entry_edges, f))
                continue
            block = cfg.blocks[item.block]
            total.add(self.cost_model.block_vector(block, program), f)
            if block.kind is NodeKind.CALL:
                callee = block.call_target
                if callee is not None and callee in program:
                    total.add(self.proc_costs[callee], f)
                    sites.append((_CALL, callee, f))
            # Marks triggered by edges into this block from inside the
            # scope (edges from outside are the *scope's* entry and
            # belong to the caller's accounting).
            preds = cfg.preds(item.block)
            for src in preds:
                if src in members:
                    rate = f / max(1, len(preds))
                    if rate > _EPS:
                        sites.append((_EDGE, (proc_name, src, item.block), rate))
        self.sites[proc_name, within.uid if within is not None else None] = tuple(
            sites
        )
        return total

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
        cfg = self.cfgs[proc_name]
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
                if callee in self.program and self._callee_has_loops(callee):
                    outer_loops = sum(
                        1 for l in self.loops[callee] if l.parent is None
                    )
                    steps += 1.0 + outer_loops
        return steps

    def _callee_has_loops(self, callee: str) -> bool:
        return bool(self.loops.get(callee))

    def _loop_contains_inlinable_call(self, proc_name: str, loop: Loop) -> bool:
        cfg = self.cfgs[proc_name]
        for b in loop.body:
            block = cfg.blocks[b]
            if block.kind is NodeKind.CALL and block.call_target:
                callee = block.call_target
                if callee in self.program and self._callee_has_loops(callee):
                    return True
        return False

    def _emit_proc(self, proc_name: str, depth: int, budget: float) -> _Call:
        return _Call(proc_name, self._emit_scope(proc_name, None, depth, budget))

    def _emit_scope(
        self, proc_name: str, within: Optional[Loop], depth: int, budget: float
    ) -> tuple:
        items, freq, order = self._scope_info(proc_name, within)
        members = self._scope_members(proc_name, within)
        cfg = self.cfgs[proc_name]
        program = self.program
        scope_uid = within.uid if within else proc_name

        ops: list = []
        pending_cost = CostVector.zero(self.core_types)
        pending_sites: list = []
        pending_count = 0

        def flush(tag: str) -> None:
            nonlocal pending_count
            if pending_count == 0:
                return
            segment = self._segment(
                f"{scope_uid}/{tag}", 1.0, pending_cost.scaled(1.0)
            )
            ops.append(_Group(segment, tuple(pending_sites)))
            pending_cost.instrs = 0.0
            for name in pending_cost.compute:
                pending_cost.compute[name] = 0.0
                pending_cost.stall[name] = 0.0
                pending_cost.l2hits[name] = 0.0
            pending_sites.clear()
            pending_count = 0

        for key in order:
            item = items[key]
            f = freq[key]
            if f <= _EPS:
                continue
            if item.loop is not None:
                loop = item.loop
                trips = self._trip(loop)
                steps = self._estimated_steps(proc_name, loop, budget)
                flush("pre")
                entry_edges = self._entry_edges(proc_name, loop)
                if f >= EXPAND_FREQ_THRESHOLD and steps > 1.0:
                    children = self._emit_scope(
                        proc_name, loop, depth, budget / max(1.0, trips)
                    )
                    ops.append(
                        _Expanded(
                            children,
                            int(round(trips)),
                            entry_edges,
                            f"{loop.uid}:entry",
                        )
                    )
                else:
                    cost = self._aggregate_loop(proc_name, loop)
                    segment = self._segment(loop.uid, trips * f, cost)
                    ops.append(_Collapsed(segment, proc_name, loop.uid, entry_edges))
                continue

            block = cfg.blocks[item.block]
            callee = block.call_target
            pending_cost.add(self.cost_model.block_vector(block, program), f)
            pending_count += 1
            if (
                block.kind is NodeKind.CALL
                and callee
                and callee in program
                and self._callee_has_loops(callee)
                and f >= EXPAND_FREQ_THRESHOLD
                and depth < self.spec.max_inline_depth
            ):
                flush("pre")
                ops.append(self._emit_proc(callee, depth + 1, budget))
            elif block.kind is NodeKind.CALL and callee in program:
                pending_cost.add(self.proc_costs[callee], f)
                pending_sites.append((_CALL, callee, f))
            else:
                preds = cfg.preds(item.block)
                frequent = f >= EXPAND_FREQ_THRESHOLD
                for src in preds:
                    if src in members:
                        pending_sites.append(
                            (
                                _BLOCK_EDGE,
                                (proc_name, src, item.block),
                                f / max(1, len(preds)),
                                frequent,
                            )
                        )

        flush("post")
        return tuple(ops)
