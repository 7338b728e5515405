"""Simulated processes and their execution traces.

A process's dynamic behaviour is a compact hierarchical *trace*:
a sequence of :class:`Segment` leaves (a code section — typically a
loop — executed for some number of iterations at a precomputed
per-iteration cost per core type) optionally nested under
:class:`Repeat` nodes (an outer loop alternating between phases).  The
executor walks traces with a :class:`TraceCursor`, so a benchmark that
runs for 10^11 cycles costs only as many Python steps as it has phase
changes — which is exactly the granularity phase-based tuning acts on.

Phase marks appear in traces in two forms, mirroring where the static
techniques place them:

* ``entry_marks`` fire once each time the segment is entered (loop and
  interval techniques put marks outside loops, so this is their shape);
* ``embedded`` marks fire *inside* the body, ``rate`` times per
  iteration (the naive basic-block technique's shape: marks within loop
  bodies that fire every iteration and can thrash between core types).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.errors import SimulationError
from repro.sim.cost_model import CostVector


@dataclass(frozen=True, slots=True)
class MarkRef:
    """Reference to a phase mark attached to a trace segment.

    Attributes:
        mark_id: phase-mark id (unique within one program).
        phase_type: the type the mark announces.
    """

    mark_id: int
    phase_type: int


@dataclass(frozen=True, slots=True)
class EmbeddedMark(MarkRef):
    """A mark inside a segment body.

    Attributes:
        rate: expected firings per body iteration.
    """

    rate: float = 0.0


#: The fields a :class:`Segment` pickles, in state order: the compared
#: ones.
_SEGMENT_STATE = ("uid", "phase_type", "iterations", "cost", "entry_marks", "embedded")


@dataclass(slots=True)
class Segment:
    """A leaf trace node: one section executed ``iterations`` times.

    Attributes:
        uid: section id (e.g. the loop uid) for reporting.
        phase_type: the section's static phase type, if any.
        iterations: body executions per entry.
        cost: per-iteration cost (instructions, compute and stall cycles
            per core type).
        entry_marks: mark ids fired on each entry to the segment.
        embedded: marks firing within the body, per iteration.
    """

    uid: str
    phase_type: Optional[int]
    iterations: float
    cost: CostVector
    entry_marks: tuple = ()
    embedded: tuple = ()
    #: Per-core-type flat cost tuples, built lazily (or eagerly at
    #: trace-build time) so the executor's inner loop avoids repeated
    #: dict lookups into :class:`CostVector`.  Excluded from equality:
    #: it is a pure cache over ``cost``.
    _cost_tuples: Optional[dict] = field(
        default=None, repr=False, compare=False
    )
    _embedded_rate: Optional[float] = field(
        default=None, repr=False, compare=False
    )
    #: Per-core-type step rows of :func:`repro.sim.flattrace.step_row`,
    #: shared by every flat-trace visit of this segment.  Never passed
    #: on, unlike ``_cost_tuples``: a row holds ``iterations`` and the
    #: mark flags, which copies sharing the cost may change.
    _rows: Optional[dict] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self):
        # Only the compared fields travel; the caches rebuild lazily.
        return tuple(getattr(self, name) for name in _SEGMENT_STATE)

    def __setstate__(self, state) -> None:
        if len(state) == 2:
            # ``(None, slots)``: pickled with its caches, which are
            # dropped (they rebuild to the same floats).
            slots = state[1]
            state = tuple(slots[name] for name in _SEGMENT_STATE)
        (
            self.uid,
            self.phase_type,
            self.iterations,
            self.cost,
            self.entry_marks,
            self.embedded,
        ) = state
        self._cost_tuples = None
        self._embedded_rate = None
        self._rows = None

    @property
    def total_instrs(self) -> float:
        return self.cost.instrs * self.iterations

    def cycles_per_iter(self, ctype_name: str) -> float:
        return self.cost.cycles(ctype_name)

    @property
    def embedded_rate(self) -> float:
        """Total embedded-mark firings per body iteration (cached)."""
        rate = self._embedded_rate
        if rate is None:
            rate = self._embedded_rate = sum(e.rate for e in self.embedded)
        return rate

    def cost_tuple(self, ctype_name: str) -> tuple:
        """``(compute, stall, l2_hits, instrs, stall_fraction)`` per
        iteration on one core type — the executor's flat view of
        :attr:`cost`."""
        cache = self._cost_tuples
        if cache is None:
            cache = self._cost_tuples = {}
        entry = cache.get(ctype_name)
        if entry is None:
            cost = self.cost
            entry = (
                cost.compute[ctype_name],
                cost.stall[ctype_name],
                cost.l2hits[ctype_name],
                cost.instrs,
                cost.stall_fraction(ctype_name),
            )
            cache[ctype_name] = entry
        return entry


@dataclass(slots=True)
class Repeat:
    """An interior trace node: children executed in order, ``count`` times."""

    children: tuple
    count: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise SimulationError(f"negative repeat count {self.count}")


TraceNode = Union[Segment, Repeat]


@dataclass(slots=True)
class Trace:
    """A process's whole dynamic behaviour."""

    nodes: tuple
    #: Cached flat form built by
    #: :func:`repro.sim.flattrace.flat_trace` — a pure cache, excluded
    #: from equality and from pickling (workers and the disk cache ship
    #: only the tree; the flat form is rebuilt lazily where needed).
    _flat: object = field(default=None, repr=False, compare=False)
    #: Memoised :meth:`content_digest`, a pure cache like ``_flat``.
    _digest: Optional[str] = field(default=None, repr=False, compare=False)

    def __getstate__(self):
        return self.nodes

    def __setstate__(self, state) -> None:
        self.nodes = state
        self._flat = None
        self._digest = None

    def content_digest(self) -> str:
        """sha256 over every field trace equality compares.

        Equal digests mean equal traces, so two runs over them simulate
        identically.  The converse can fail only conservatively (``0.0``
        vs ``-0.0``, ``1`` vs ``1.0``).
        """
        digest = self._digest
        if digest is None:
            parts: list = []
            _content_parts(self.nodes, parts)
            blob = "".join(parts).encode("utf-8")
            digest = self._digest = hashlib.sha256(blob).hexdigest()
        return digest

    def total_instrs(self) -> float:
        return sum(_node_instrs(n) for n in self.nodes)

    def total_cycles(self, ctype_name: str) -> float:
        return sum(_node_cycles(n, ctype_name) for n in self.nodes)

    def segments(self):
        """Iterate all distinct Segment leaves (structure order)."""
        stack = list(reversed(self.nodes))
        while stack:
            node = stack.pop()
            if isinstance(node, Segment):
                yield node
            else:
                stack.extend(reversed(node.children))


def _content_parts(nodes, parts: list) -> None:
    """Append an exact text form of *nodes* to *parts*: the repr of
    every field trace equality compares, nothing else (the caches are
    ``compare=False``).  ``test_content_digest_covers_every_compared_field``
    fails when a compared field is added and not listed here."""
    for node in nodes:
        if isinstance(node, Segment):
            cost = node.cost
            parts.append(
                f"S{node.uid!r},{node.phase_type!r},{node.iterations!r},"
                f"{cost.instrs!r},{sorted(cost.compute.items())!r},"
                f"{sorted(cost.stall.items())!r},"
                f"{sorted(cost.l2hits.items())!r},"
                f"{node.entry_marks!r},{node.embedded!r};"
            )
        else:
            parts.append(f"R{node.count!r}[")
            _content_parts(node.children, parts)
            parts.append("]")


def _node_instrs(node: TraceNode) -> float:
    if isinstance(node, Segment):
        return node.total_instrs
    return node.count * sum(_node_instrs(c) for c in node.children)


def _node_cycles(node: TraceNode, ctype_name: str) -> float:
    if isinstance(node, Segment):
        return node.cycles_per_iter(ctype_name) * node.iterations
    return node.count * sum(_node_cycles(c, ctype_name) for c in node.children)


class TraceCursor:
    """Iterative walker over a trace's nested repeat structure."""

    __slots__ = ("_stack", "_segment", "_iters_done", "at_entry")

    def __init__(self, trace: Trace):
        self._stack: list[list] = []  # frames: [nodes, index, reps_left]
        self._segment: Optional[Segment] = None
        self._iters_done: float = 0.0
        self.at_entry: bool = False
        if trace.nodes:
            self._stack.append([trace.nodes, 0, 1])
            self._descend()

    def _descend(self) -> None:
        """Advance to the next Segment leaf, if any."""
        self._segment = None
        while self._stack:
            nodes, index, reps = self._stack[-1]
            if index >= len(nodes):
                if reps > 1:
                    self._stack[-1][1] = 0
                    self._stack[-1][2] = reps - 1
                    continue
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += 1
                continue
            node = nodes[index]
            if isinstance(node, Segment):
                if node.iterations <= 0:
                    self._stack[-1][1] += 1
                    continue
                self._segment = node
                self._iters_done = 0.0
                self.at_entry = True
                return
            if node.count <= 0 or not node.children:
                self._stack[-1][1] += 1
                continue
            self._stack.append([node.children, 0, node.count])

    @property
    def finished(self) -> bool:
        return self._segment is None

    @property
    def current(self) -> Optional[Segment]:
        return self._segment

    @property
    def remaining_iterations(self) -> float:
        if self._segment is None:
            return 0.0
        return self._segment.iterations - self._iters_done

    def consume(self, iterations: float) -> None:
        """Consume *iterations* of the current segment.

        Raises:
            SimulationError: if more than the remainder is consumed or
                the trace is finished.
        """
        if self._segment is None:
            raise SimulationError("consume() on a finished trace")
        if iterations < 0 or iterations > self.remaining_iterations + 1e-9:
            raise SimulationError(
                f"cannot consume {iterations} of "
                f"{self.remaining_iterations} remaining iterations"
            )
        self.at_entry = False
        self._iters_done += iterations
        if self.remaining_iterations <= 1e-9:
            self._stack[-1][1] += 1
            self._descend()

    def mark_entry_handled(self) -> None:
        """Entry marks of the current segment were processed."""
        self.at_entry = False


@dataclass(slots=True)
class ProcessStats:
    """Accumulated execution statistics of one process."""

    instructions: float = 0.0
    cycles_by_type: dict = field(default_factory=dict)
    instrs_by_type: dict = field(default_factory=dict)
    cpu_time: float = 0.0
    switches: float = 0.0
    migrations: int = 0
    mark_firings: float = 0.0
    mark_overhead_cycles: float = 0.0

    def record(self, ctype_name: str, instrs: float, cycles: float) -> None:
        self.instructions += instrs
        self.cycles_by_type[ctype_name] = (
            self.cycles_by_type.get(ctype_name, 0.0) + cycles
        )
        self.instrs_by_type[ctype_name] = (
            self.instrs_by_type.get(ctype_name, 0.0) + instrs
        )


class _FlowTimes:
    """Flow time and stretch over ``arrival``, ``completion`` and
    ``isolated_time`` — shared by live processes and their records."""

    __slots__ = ()

    @property
    def flow_time(self) -> Optional[float]:
        """F_j = C_j - a_j, once completed."""
        if self.completion is None:
            return None
        return self.completion - self.arrival

    @property
    def stretch(self) -> Optional[float]:
        """F_j / t_j (Bender et al.), once completed."""
        flow = self.flow_time
        if flow is None or self.isolated_time <= 0:
            return None
        return flow / self.isolated_time


class SimProcess(_FlowTimes):
    """One running job: a trace plus scheduling state.

    Attributes:
        pid: unique process id.
        name: benchmark name (for reporting).
        trace: the dynamic behaviour.
        affinity: allowed core ids (the ``sched_setaffinity`` mask).
        arrival: arrival time in seconds.
        slot: workload slot index the process occupies, if any.
    """

    __slots__ = (
        "pid",
        "name",
        "trace",
        "cursor",
        "affinity",
        "arrival",
        "completion",
        "isolated_time",
        "slot",
        "stats",
        "tuner_state",
        "monitor_session",
        "current_core",
    )

    def __init__(
        self,
        pid: int,
        name: str,
        trace: Trace,
        affinity: frozenset,
        arrival: float = 0.0,
        isolated_time: float = 0.0,
        slot: Optional[int] = None,
    ):
        from repro.sim.flattrace import make_cursor  # Local: import cycle.

        self.pid = pid
        self.name = name
        self.trace = trace
        self.cursor = make_cursor(trace)
        self.affinity = affinity
        self.arrival = arrival
        self.completion: Optional[float] = None
        self.isolated_time = isolated_time
        self.slot = slot
        self.stats = ProcessStats()
        self.tuner_state: dict = {}
        self.monitor_session = None
        self.current_core: Optional[int] = None

    @property
    def finished(self) -> bool:
        return self.cursor.finished

    def __repr__(self) -> str:
        state = "done" if self.finished else "running"
        return f"SimProcess(pid={self.pid}, {self.name}, {state})"


@dataclass(frozen=True, slots=True)
class ProcessRecord(_FlowTimes):
    """What a finished run keeps of one process: the numbers the
    metrics read, without the trace, cursor or scheduling state.

    A handful of floats where a :class:`SimProcess` drags its whole
    trace along, so results cross process boundaries cheaply.
    ``tuner_state`` is kept (and stays shared between the records of
    one thread group) for callers inspecting tuning decisions.
    """

    pid: int
    name: str
    slot: Optional[int]
    arrival: float
    completion: Optional[float]
    isolated_time: float
    stats: ProcessStats
    tuner_state: dict

    @classmethod
    def of(cls, process) -> "ProcessRecord":
        """The record of *process* (a :class:`SimProcess` or a record)."""
        return cls(
            process.pid,
            process.name,
            process.slot,
            process.arrival,
            process.completion,
            process.isolated_time,
            process.stats,
            process.tuner_state,
        )


def spawn_thread_group(
    base_pid: int,
    name: str,
    traces,
    affinity: frozenset,
    isolated_time: float = 0.0,
    slot=None,
) -> list:
    """Create the threads of one multi-threaded process (Section VI-A).

    "When an application spawns multiple threads, it is essentially
    running one or more copies of the same code ... each thread will
    contain the necessary core switching and monitoring code present in
    the phase marks."  The marks' descriptor data lives in the process
    image, so all threads share one tuning state: a phase type decided
    by any thread applies to its siblings, and exploration work is not
    repeated per thread.  Each thread is its own schedulable entity with
    its own trace cursor and statistics.
    """
    shared_tuner_state: dict = {}
    threads = []
    for i, trace in enumerate(traces):
        thread = SimProcess(
            base_pid + i,
            f"{name}/t{i}",
            trace,
            affinity,
            isolated_time=isolated_time,
            slot=slot,
        )
        thread.tuner_state = shared_tuner_state
        threads.append(thread)
    return threads
