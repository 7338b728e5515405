"""The discrete-event execution engine.

Runs a set of :class:`~repro.sim.process.SimProcess` jobs on a
:class:`~repro.sim.machine.MachineConfig` under a scheduler, optionally
with a tuning runtime attached (the dynamic half of phase-based tuning).

Execution is quantum-at-a-time per core.  Within a quantum the core
consumes trace segments: phase marks fire at segment entries (and, for
marks embedded in collapsed bodies, at a per-iteration rate), the
runtime may request an affinity change, and a change that excludes the
current core preempts the process and charges the ~1000-cycle migration
cost.  L2-sharing contention inflates the stall portion of a segment's
cycles by a factor proportional to the co-runner's memory intensity.

The runtime attached via ``runtime`` must provide::

    on_mark(process, mark_id, phase_type, core, now) -> MarkAction
    on_process_end(process, now) -> None
    assignment_for(process, phase_type) -> Optional[CoreType]

(See :mod:`repro.tuning.runtime`; ``None`` runs the stock baseline.)
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from heapq import heappop as _heappop, heapreplace as _heapreplace
from typing import Callable, Optional

from repro.errors import (
    AffinitySyscallError,
    FaultError,
    SimulationError,
)
from repro.instrument.phase_mark import MARK_FIRE_CYCLES
from repro.sim.events import EventQueue
from repro.sim.faults import (
    DvfsEvent,
    FaultInjector,
    FaultPlan,
    HotplugEvent,
    MemoryPressureEvent,
)
from repro.sim.flattrace import FlatCursor
from repro.sim.memory import MemoryModel
from repro.sim.machine import MachineConfig
from repro.sim.process import ProcessRecord, Segment, SimProcess
from repro.sim.scheduler.affinity import MIGRATION_CYCLES, validate_affinity
from repro.sim.scheduler.base import Scheduler
from repro.sim.scheduler.linux_o1 import LinuxO1Scheduler
from repro.taxonomy import cancelled_reason
from repro.telemetry.context import current_recorder
from repro.telemetry.events import PROC_TID_BASE

#: Floor on simulated progress per scheduling decision, to keep the
#: event count bounded even for pathological zero-cost segments.
_MIN_STEP_S = 1e-9

#: Environment kill-switch for segment-batched quantum execution: any
#: non-empty value forces ``batched=False`` (the stepped reference
#: path) wherever the constructor is left to pick the default.
NO_BATCH_ENV = "REPRO_NO_BATCH"


@dataclass(frozen=True)
class MarkAction:
    """What a runtime asked for after a mark fired."""

    affinity: Optional[frozenset] = None
    extra_cycles: float = 0.0


#: Reused no-op action for mark-free segment entries (the overwhelmingly
#: common case in baseline runs) and for runtime marks that ask nothing.
NO_ACTION = MarkAction()

#: Reused actions for runtime-less entries, keyed by entry-mark count —
#: the extra cycles depend only on that count.
_ENTRY_ACTIONS: dict = {}


@dataclass
class SimulationResult:
    """Everything a finished (or stopped) simulation observed.

    :meth:`Simulation.run` fills the process lists with the live
    :class:`SimProcess` objects; :meth:`summary` swaps them for
    :class:`ProcessRecord` numbers, the shape experiment outcomes
    carry and ship between processes.

    Attributes:
        machine: the machine simulated.
        time: simulation end time in seconds.
        completed: processes that ran to completion, in completion order.
        running: processes still live at the end.
        cancelled: processes removed by cancellation events, in
            cancellation order (open-system departures; empty for
            closed runs).  Cancelled processes never appear in
            ``completed`` or ``running``.
        throughput_buckets: instructions committed per 1-second bucket.
        idle_time_by_core: seconds each core spent idle.
    """

    machine: MachineConfig
    time: float
    completed: list = field(default_factory=list)
    running: list = field(default_factory=list)
    throughput_buckets: dict = field(default_factory=dict)
    idle_time_by_core: dict = field(default_factory=dict)
    cancelled: list = field(default_factory=list)

    def instructions_before(self, horizon: float) -> float:
        """Instructions committed in ``[0, horizon)``."""
        return sum(
            count
            for bucket, count in self.throughput_buckets.items()
            if bucket < horizon
        )

    @property
    def all_processes(self) -> list:
        return self.completed + self.running

    def total_switches(self) -> float:
        return sum(p.stats.switches for p in self.all_processes)

    def summary(self) -> "SimulationResult":
        """This result with every process replaced by its
        :class:`ProcessRecord`; times, buckets and idle times shared."""
        return replace(
            self,
            completed=[ProcessRecord.of(p) for p in self.completed],
            running=[ProcessRecord.of(p) for p in self.running],
            cancelled=[ProcessRecord.of(p) for p in self.cancelled],
        )


def _core_waker(
    core_offline, core_idle, core_idle_since, core_busy_until, idle_time,
    events, core_events,
):
    """The ``waker(core_id, now)`` a simulation gives its scheduler:
    an idle, online core closes its idle interval and gets a turn at
    *now*, or when its last quantum ends if that is later."""

    def wake(core_id: int, now: float) -> None:
        if core_offline[core_id]:
            return
        if core_idle[core_id]:
            core_idle[core_id] = False
            idle_time[core_id] += max(0.0, now - core_idle_since[core_id])
            events.push(max(now, core_busy_until[core_id]), core_events[core_id])

    return wake


class Simulation:
    """One simulation run.

    Args:
        machine: the AMP to simulate.
        scheduler: defaults to a fresh :class:`LinuxO1Scheduler`.
        runtime: tuning runtime, or ``None`` for the stock baseline.
        contention_alpha: strength of L2-sharing bandwidth contention
            (0 disables): a memory-intensive co-runner inflates this
            segment's stall cycles by up to this factor.
        pollution_beta: strength of shared-L2 *pollution*: the fraction
            of this segment's L2-resident accesses a fully streaming
            co-runner turns into DRAM misses.  Pollution is what makes
            random co-location (the stock scheduler) expensive for
            cache-resident code and segregation (phase-based tuning)
            valuable — on the paper's machine each core pair shares one
            L2, so a streaming neighbour evicts a cache-resident
            neighbour's working set.
        on_complete: callback ``(process, now) -> Optional[SimProcess]``;
            a returned process is admitted immediately (job queues).
        on_cancel: callback ``(process, now) -> None`` fired when a
            :meth:`cancel_process` event lands; *process* is the
            removed process, or ``None`` when the cancellation missed
            (the job had already completed, never arrived, or the
            scheduler could not remove it).  Open-system engines use
            this for ledger bookkeeping; ``None`` (the default) costs
            nothing.
        faults: optional :class:`~repro.sim.faults.FaultPlan` (or a
            prebuilt :class:`~repro.sim.faults.FaultInjector`).  ``None``
            — and a null plan — leave the run bit-identical to an
            injector-free simulation.
    """

    def __init__(
        self,
        machine: MachineConfig,
        scheduler: Optional[Scheduler] = None,
        runtime=None,
        contention_alpha: float = 0.4,
        pollution_beta: float = 0.6,
        on_complete: Optional[Callable] = None,
        memory: Optional[MemoryModel] = None,
        faults=None,
        batched: Optional[bool] = None,
        on_cancel: Optional[Callable] = None,
    ):
        self.machine = machine
        self.scheduler = scheduler or LinuxO1Scheduler()
        self.runtime = runtime
        self.contention_alpha = contention_alpha
        self.pollution_beta = pollution_beta
        self.memory = memory or MemoryModel()
        self.on_complete = on_complete
        self.on_cancel = on_cancel
        #: Segment-batched quantum execution over flat traces; disable
        #: to force the stepped reference path (golden-equality tests).
        #: ``None`` resolves the REPRO_NO_BATCH kill-switch, the
        #: environment form of the same escape hatch (benchmarks and CI
        #: drive whole processes through the stepped path with it).
        if batched is None:
            batched = not os.environ.get(NO_BATCH_ENV)
        self.batched = batched

        self._events = EventQueue()
        self._now = 0.0
        # Core ids are dense (validated by MachineConfig), so per-core
        # state lives in flat lists: the quantum loop indexes them far
        # more often than anything else touches them.
        n_cores = len(machine)
        self._core_busy_until = [0.0] * n_cores
        self._core_idle = [True] * n_cores
        self._core_idle_since = [0.0] * n_cores
        self._core_stall_frac = [0.0] * n_cores
        self._core_offline = [False] * n_cores
        self._core_freq_scale = [1.0] * n_cores
        # Effective-L2 shrink per core (memory-pressure faults); 0.0
        # contributes nothing to the stall math.
        self._core_mem_pressure = [0.0] * n_cores
        # Degradation hooks a hardened runtime may expose; resolved once
        # here so the hot path pays no getattr per mark.
        self._notify_affinity = (
            getattr(runtime, "on_affinity_result", None)
            if runtime is not None
            else None
        )
        self._notify_machine = (
            getattr(runtime, "on_machine_event", None)
            if runtime is not None
            else None
        )
        self.faults: Optional[FaultInjector] = None
        if faults is not None:
            if isinstance(faults, FaultPlan):
                self.faults = FaultInjector(faults, machine)
            elif isinstance(faults, FaultInjector):
                self.faults = faults
            else:
                raise FaultError(
                    f"faults must be a FaultPlan or FaultInjector, "
                    f"got {type(faults).__name__}"
                )
            for event in self.faults.scheduled_events():
                self._events.push(event.time, ("fault", event))
            attach = getattr(runtime, "attach_faults", None)
            if attach is not None:
                attach(self.faults)
        self._l2_neighbors = tuple(
            tuple(machine.l2_neighbors(c.cid)) for c in machine.cores
        )
        self._pollution_penalty = {
            ct.name: self.memory.dram_penalty_cycles(ct) - self.memory.l2_hit_cycles
            for ct in machine.core_types()
        }
        # Per-core execution context, fetched with one index per quantum
        # (everything here is immutable for the life of the simulation;
        # only the DVFS frequency scale stays in its own mutable list).
        # The last slot is the sole L2 neighbour's id when there is
        # exactly one (the paper's pairwise-shared-L2 machines), else -1.
        self._core_exec = tuple(
            (
                core,
                core.ctype.name,
                core.ctype.freq_hz,
                self._l2_neighbors[core.cid],
                self._pollution_penalty[core.ctype.name],
                self._l2_neighbors[core.cid][0]
                if len(self._l2_neighbors[core.cid]) == 1
                else -1,
            )
            for core in machine.cores
        )
        # Effective per-core frequency (base × DVFS scale), kept in sync
        # by _apply_fault; freq_hz * 1.0 is exact, so the cached value
        # always equals the per-quantum product it replaces.
        self._core_freq_eff = [
            core.ctype.freq_hz * 1.0 for core in machine.cores
        ]
        self._core_events = tuple(("core", core.cid) for core in machine.cores)
        self._result = SimulationResult(
            machine,
            0.0,
            idle_time_by_core={c.cid: 0.0 for c in machine.cores},
        )
        self._live: set = set()
        # The scheduler's waker closes over the per-core state it
        # touches, not over the simulation: a bound method would make
        # simulation and scheduler a reference cycle, and every finished
        # run would wait for the cycle collector to be freed.
        self._wake_core = _core_waker(
            self._core_offline,
            self._core_idle,
            self._core_idle_since,
            self._core_busy_until,
            self._result.idle_time_by_core,
            self._events,
            self._core_events,
        )
        self.scheduler.attach(machine, self._wake_core)
        # Telemetry: the recorder and its category gates are resolved
        # once here, so with the null recorder (the default) every hook
        # point below is a single falsy attribute check and an untraced
        # run executes exactly the float operations it always did.
        rec = current_recorder()
        tr = rec if rec.enabled else None
        self._tr = tr
        if tr is not None:
            self._tr_run = tr.begin_run(f"sim:{machine.name}", clock="sim")
            self._tr_exec = tr.wants("exec")
            self._tr_phase = tr.wants("phase")
            self._tr_quantum = tr.wants("quantum")
            self._tr_fault = tr.wants("fault")
            self._tr_opensys = tr.wants("opensys")
            self.scheduler.telemetry = tr if tr.wants("sched") else None
            attach_tr = getattr(runtime, "attach_telemetry", None)
            if attach_tr is not None:
                attach_tr(tr, self._tr_run)
        else:
            self._tr_run = 0
            self._tr_exec = self._tr_phase = False
            self._tr_quantum = self._tr_fault = False
            self._tr_opensys = False

    # -- admission -------------------------------------------------------------

    def add_process(self, proc: SimProcess, at: float = 0.0) -> None:
        """Admit *proc* at time *at*."""
        validate_affinity(proc.affinity, len(self.machine))
        self._events.push(at, ("arrive", proc))

    def cancel_process(self, pid: int, at: float) -> None:
        """Schedule cancellation of process *pid* at time *at*.

        The cancellation enters the event heap like an arrival or a
        fault and fires in time order with them (DESIGN.md §15).  When
        it fires, a job still waiting in a runqueue is removed and torn
        down cleanly (runtime notified, ledger updated); a job that
        already completed — or one mid-quantum under a scheduler that
        cannot remove it — makes the cancellation a miss, reported to
        ``on_cancel`` as ``None``.
        Mid-run cancellations therefore take effect at the end of the
        quantum in flight at *at*, which is when the process returns to
        a runqueue.
        """
        self._events.push(at, ("cancel", pid))

    # -- main loop --------------------------------------------------------------

    def run(self, until: float) -> SimulationResult:
        """Run the simulation until time *until* (seconds).

        One loop delivers every event, and a core's turn runs inside it:
        pick the core's next process, run one quantum, put the process
        back and reschedule the core.  A quantum over a flat trace runs
        inline, one step row per iteration, with the cursor state in
        locals; the common quantum that resumes mid-step and ends inside
        that step is just the loop's first iteration.  Other traces,
        and ``batched=False``, run :meth:`_run_quantum_stepped`.
        """
        # The loop runs once per scheduling quantum — hundreds of
        # thousands of times per experiment — so everything it reads
        # that cannot change during the run is bound to a local here,
        # once per call, and it reads the heap directly instead of going
        # through the EventQueue wrappers.  Mutable members (lists and
        # dicts) are shared references, so faults and the waker keep
        # them current.
        events = self._events
        heap = events._heap
        heappop = _heappop
        heapreplace = _heapreplace
        scheduler = self.scheduler
        runtime = self.runtime
        with_runtime = runtime is not None
        batched = self.batched
        timeslice = scheduler.timeslice
        min_step = _MIN_STEP_S
        core_exec = self._core_exec
        core_events = self._core_events
        freq_eff = self._core_freq_eff
        busy_until = self._core_busy_until
        core_idle = self._core_idle
        core_idle_since = self._core_idle_since
        core_stall_frac = self._core_stall_frac
        core_offline = self._core_offline
        core_mem_pressure = self._core_mem_pressure
        contention_alpha = self.contention_alpha
        pollution_beta = self.pollution_beta
        buckets = self._result.throughput_buckets
        fire_marks = self._fire_marks
        tr_exec = self._tr_exec
        tr_quantum = self._tr_quantum
        # The stock scheduler's pick and requeue run inline on its
        # runqueues (indexed by core id); any other scheduler, a
        # subclass included (it may override them), gets the calls.
        if type(scheduler) is LinuxO1Scheduler:
            queues = [scheduler._queues[cid] for cid in range(len(core_exec))]
            sched_offline = scheduler._offline
            balance_interval = scheduler.balance_interval
        else:
            queues = None

        while heap:
            entry = heap[0]
            now = entry[0]
            if now > until:
                break
            if now > self._now:
                self._now = now
            payload = entry[2]
            kind = payload[0]
            if kind != "core":
                heappop(heap)
                if kind == "arrive":
                    self._arrive(payload[1], now)
                elif kind == "cancel":
                    self._do_cancel(payload[1], now)
                elif kind == "fault":
                    self._apply_fault(payload[1], now)
                else:  # pragma: no cover - defensive
                    raise SimulationError(f"unknown event {kind!r}")
                continue

            # -- a core's turn: pick ---------------------------------------
            core_id = payload[1]
            if core_offline[core_id]:
                proc = None
            elif queues is not None:
                if now - scheduler._last_balance >= balance_interval:
                    scheduler._maybe_balance(now)
                queue = queues[core_id]
                proc = queue.popleft() if queue else scheduler._steal(core_id, now)
            else:
                proc = scheduler.pick(core_id, now)
            if proc is None:
                core_idle[core_id] = True
                core_idle_since[core_id] = now
                core_stall_frac[core_id] = 0.0
                # Every push made during the turn is keyed after this
                # entry, so it is still the heap's root.
                heappop(heap)
                continue

            # -- run one quantum -------------------------------------------
            cursor = proc.cursor
            if batched and cursor.__class__ is FlatCursor:
                # Bit-identical to _run_quantum_stepped: every step runs
                # through the same scalar expressions, in the same
                # order, reading its costs from the step's shared row.
                core, ctype_name, _, neighbors, pollution_penalty, nb = (
                    core_exec[core_id]
                )
                freq = freq_eff[core_id]
                budget = timeslice
                t = now
                proc.current_core = core_id
                flat = cursor.flat
                pos = cursor.pos
                done = cursor.iters_done
                at_entry = cursor.at_entry
                n_steps = flat.n
                # The neighbour scan reads only *other* cores' state,
                # which nothing changes mid-quantum, so it is
                # quantum-invariant.  Stall fractions are non-negative,
                # so with a single L2 neighbour the max-scan collapses
                # to one read.
                if nb >= 0:
                    neighbor = 0.0 if core_idle[nb] else core_stall_frac[nb]
                else:
                    neighbor = 0.0
                    for other in neighbors:
                        if not core_idle[other]:
                            other_frac = core_stall_frac[other]
                            if other_frac > neighbor:
                                neighbor = other_frac
                # Like the neighbour scan: pressure events only apply
                # between quanta.
                mem_pressure = core_mem_pressure[core_id]
                stats = proc.stats
                rows = flat.rows[ctype_name]
                end = None
                while budget > 0 and pos < n_steps:
                    (
                        iterations,
                        seg_instrs,
                        per_iter_overhead,
                        emb_multi,
                        compute,
                        stall,
                        l2_resident,
                        raw_stall_frac,
                        entry_marked,
                        any_marked,
                    ) = rows[pos]
                    if at_entry:
                        # With a runtime attached, any mark (entry or
                        # embedded) may call into it; without one, only
                        # entry marks charge cycles.  A mark-free entry
                        # is an exact no-op in the stepped loop.
                        at_entry = False
                        if any_marked if with_runtime else entry_marked:
                            action = fire_marks(proc, flat.segs[pos], core, t)
                            cost_s = action.extra_cycles / freq
                            t += cost_s
                            budget -= cost_s
                            if (
                                action.affinity is not None
                                and action.affinity != proc.affinity
                            ):
                                if self.faults is not None and not (
                                    self._affinity_call_ok(proc, t)
                                ):
                                    continue
                                proc.affinity = validate_affinity(
                                    action.affinity, len(self.machine)
                                )
                                if (
                                    self.faults is not None
                                    and self._notify_affinity is not None
                                ):
                                    self._notify_affinity(proc, True, None, t)
                                if core_id not in proc.affinity:
                                    # Core switch: charge migration and
                                    # preempt.
                                    stats.switches += 1
                                    stats.migrations += 1
                                    if tr_exec:
                                        self._tr.instant(
                                            "exec",
                                            "migrate",
                                            t,
                                            tid=PROC_TID_BASE + proc.pid,
                                            args={"pid": proc.pid, "from": core_id},
                                            run=self._tr_run,
                                        )
                                    end = t + MIGRATION_CYCLES / freq
                                    break
                            continue

                    if neighbor > 0:
                        if contention_alpha > 0 and stall > 0:
                            stall *= 1.0 + contention_alpha * neighbor
                        if pollution_beta > 0 and l2_resident > 0:
                            stall += (
                                pollution_beta
                                * neighbor
                                * l2_resident
                                * pollution_penalty
                            )
                    if mem_pressure > 0.0 and l2_resident > 0:
                        stall += mem_pressure * l2_resident * pollution_penalty

                    # The row's overhead is exactly embedded_rate *
                    # MARK_FIRE_CYCLES (0.0 for mark-free steps) — what
                    # _embedded_overhead returns whenever thrash is
                    # impossible (no runtime, or fewer than two embedded
                    # marks).
                    switch_rate = 0.0
                    if with_runtime and emb_multi:
                        per_iter_overhead, switch_rate = self._embedded_overhead(
                            proc, flat.segs[pos], runtime
                        )

                    total_per_iter = compute + stall + per_iter_overhead
                    # min()/max() spelled as conditionals (value-identical
                    # for the non-NaN floats here).
                    per_iter_s = total_per_iter / freq
                    if per_iter_s < 1e-18:
                        per_iter_s = 1e-18
                    remaining = iterations - done
                    fit = budget / per_iter_s
                    n = remaining if remaining <= fit else fit
                    if n <= 0:
                        n = min(remaining, 1e-9)
                    elapsed = n * per_iter_s
                    # stats.record inlined, same field order and float
                    # ops (0.0 + x == x exactly, so the try/except miss
                    # arm matches the .get(k, 0.0) + x it replaces).
                    instrs = n * seg_instrs
                    stats.instructions += instrs
                    cycles_by_type = stats.cycles_by_type
                    try:
                        cycles_by_type[ctype_name] += n * total_per_iter
                    except KeyError:
                        cycles_by_type[ctype_name] = n * total_per_iter
                    instrs_by_type = stats.instrs_by_type
                    try:
                        instrs_by_type[ctype_name] += instrs
                    except KeyError:
                        instrs_by_type[ctype_name] = instrs
                    # Both sums are non-negative floats, so adding a
                    # zero term (a mark-free or thrash-free step) leaves
                    # them bit-identical: the common case skips it.
                    if per_iter_overhead:
                        stats.mark_overhead_cycles += n * per_iter_overhead
                    if switch_rate:
                        stats.switches += n * switch_rate
                        if tr_exec:
                            self._tr.counter(
                                "exec",
                                "thrash",
                                t,
                                n * switch_rate,
                                tid=PROC_TID_BASE + proc.pid,
                                run=self._tr_run,
                            )
                    stats.cpu_time += elapsed
                    bucket = int(t)
                    try:
                        buckets[bucket] += instrs
                    except KeyError:
                        buckets[bucket] = instrs
                    core_stall_frac[core_id] = raw_stall_frac
                    done += n
                    if iterations - done <= 1e-9:
                        pos += 1
                        done = 0.0
                        at_entry = True
                    t += elapsed
                    budget -= elapsed
                    if budget <= min_step and pos < n_steps:
                        break

                cursor.pos = pos
                cursor.iters_done = done
                finished = pos >= n_steps
                cursor.at_entry = at_entry and not finished
                if end is None:
                    floor = now + min_step
                    end = t if t > floor else floor
            else:
                end = self._run_quantum_stepped(core_id, proc, now)
                finished = cursor.finished

            # -- put the process back, reschedule the core -----------------
            busy_until[core_id] = end
            if tr_quantum:
                self._tr.span(
                    "quantum",
                    "q",
                    now,
                    end - now,
                    tid=core_id,
                    args={"pid": proc.pid},
                    run=self._tr_run,
                )
            # core_stall_frac keeps the last segment's memory intensity
            # so neighbours sharing the L2 see this core's pressure
            # until it idles or runs something else.
            if finished:
                self._finish(proc, end)
            elif core_id in proc.affinity:
                if queues is not None and core_id not in sched_offline:
                    # Stock-scheduler requeue, inlined: the waker is a
                    # no-op for a core that is mid-turn (never idle),
                    # leaving just the runqueue append.
                    queues[core_id].append(proc)
                else:
                    scheduler.requeue(proc, core_id, end)
            else:
                scheduler.enqueue(proc, end)
            # Everything pushed during the turn is at a time >= now with
            # a later sequence number, so this turn's entry is still the
            # root: replace it in place instead of a pop and a push.
            heapreplace(heap, (end, events._seq, core_events[core_id]))
            events._seq += 1

        # Close idle accounting at the horizon.
        for cid, idle in enumerate(core_idle):
            if idle:
                self._result.idle_time_by_core[cid] += max(
                    0.0, until - core_idle_since[cid]
                )
                core_idle_since[cid] = until
        self._now = max(self._now, until)
        self._result.time = self._now
        if tr_exec:
            for cid in sorted(self._result.idle_time_by_core):
                self._tr.counter(
                    "exec",
                    "idle",
                    self._now,
                    self._result.idle_time_by_core[cid],
                    tid=cid,
                    run=self._tr_run,
                )
        return self._result

    def _arrive(self, proc: SimProcess, now: float) -> None:
        """Dispatch one ``("arrive", proc)`` event: the process joins the
        system and a runqueue."""
        proc.arrival = now
        self._live.add(proc.pid)
        if self._tr_exec:
            self._tr.instant(
                "exec",
                "start",
                now,
                tid=PROC_TID_BASE + proc.pid,
                args={"pid": proc.pid, "name": proc.name},
                run=self._tr_run,
            )
        self.scheduler.enqueue(proc, now)
        if self._tr_opensys:
            self._tr.instant(
                "opensys",
                "arrival",
                now,
                tid=PROC_TID_BASE + proc.pid,
                args={"pid": proc.pid, "name": proc.name},
                run=self._tr_run,
            )
            self._tr.counter(
                "opensys",
                "jobs_in_system",
                now,
                float(len(self._live)),
                run=self._tr_run,
            )

    # -- quantum execution -------------------------------------------------------

    def _run_quantum_stepped(
        self, core_id: int, proc: SimProcess, start: float
    ) -> float:
        """Reference quantum loop: one trace step per iteration.

        Used for unflattenable traces and as the golden reference for
        the flat quantum loop in :meth:`run` (``batched=False`` forces
        it).  Both paths must stay bit-identical — every float operation feeding
        ``t``/``budget``/``n`` cascades through scheduler decisions.
        """
        core, ctype_name, freq_hz, neighbors, pollution_penalty, _ = (
            self._core_exec[core_id]
        )
        # DVFS faults re-clock individual cores; the scale is exactly
        # 1.0 (multiplication is a float no-op) in unfaulted runs.
        freq = freq_hz * self._core_freq_scale[core_id]
        budget = self.scheduler.timeslice
        t = start
        proc.current_core = core_id

        # Invariant state hoisted out of the inner loop: attribute and
        # dict lookups here execute once per quantum, not once per
        # trace step.
        cursor = proc.cursor
        stats = proc.stats
        runtime = self.runtime
        contention_alpha = self.contention_alpha
        pollution_beta = self.pollution_beta
        core_idle = self._core_idle
        core_stall_frac = self._core_stall_frac
        buckets = self._result.throughput_buckets
        # Loop-invariant within the quantum: pressure events apply
        # between quanta, through the event loop.
        mem_pressure = self._core_mem_pressure[core_id]

        while budget > 0 and not cursor.finished:
            seg = cursor.current
            if cursor.at_entry:
                action = self._fire_marks(proc, seg, core, t)
                cost_s = action.extra_cycles / freq
                t += cost_s
                budget -= cost_s
                cursor.at_entry = False
                if action.affinity is not None and action.affinity != proc.affinity:
                    if self.faults is not None and not self._affinity_call_ok(
                        proc, t
                    ):
                        # Injected sched_setaffinity failure: the call
                        # was charged but the mask did not change.
                        continue
                    proc.affinity = validate_affinity(
                        action.affinity, len(self.machine)
                    )
                    if self.faults is not None and self._notify_affinity is not None:
                        self._notify_affinity(proc, True, None, t)
                    if core_id not in proc.affinity:
                        # Core switch: charge migration and preempt.
                        switch_s = MIGRATION_CYCLES / freq
                        stats.switches += 1
                        stats.migrations += 1
                        if self._tr_exec:
                            self._tr.instant(
                                "exec",
                                "migrate",
                                t,
                                tid=PROC_TID_BASE + proc.pid,
                                args={"pid": proc.pid, "from": core_id},
                                run=self._tr_run,
                            )
                        return t + switch_s
                continue

            compute, stall, l2_resident, seg_instrs, raw_stall_frac = (
                seg.cost_tuple(ctype_name)
            )
            neighbor = 0.0
            for other in neighbors:
                if not core_idle[other]:
                    other_frac = core_stall_frac[other]
                    if other_frac > neighbor:
                        neighbor = other_frac
            if neighbor > 0:
                if contention_alpha > 0 and stall > 0:
                    # Bandwidth contention: two memory-intensive phases
                    # on one L2 (and one front-side bus) slow each other
                    # down.
                    stall *= 1.0 + contention_alpha * neighbor
                if pollution_beta > 0 and l2_resident > 0:
                    # Pollution: a streaming co-runner evicts this
                    # segment's L2-resident lines, turning L2 hits into
                    # DRAM misses.
                    stall += pollution_beta * neighbor * l2_resident * pollution_penalty
            if mem_pressure > 0.0 and l2_resident > 0:
                # Memory-pressure fault: the shrunk share of the L2
                # turns that share of resident accesses into DRAM
                # misses, like pollution but from outside the machine.
                stall += mem_pressure * l2_resident * pollution_penalty

            per_iter_overhead = 0.0
            switch_rate = 0.0
            if seg.embedded:
                per_iter_overhead, switch_rate = self._embedded_overhead(
                    proc, seg, runtime
                )

            total_per_iter = compute + stall + per_iter_overhead
            per_iter_s = max(total_per_iter / freq, 1e-18)
            remaining = cursor.remaining_iterations
            fit = budget / per_iter_s
            n = min(remaining, fit)
            if n <= 0:
                n = min(remaining, 1e-9)
            elapsed = n * per_iter_s
            stats.record(ctype_name, n * seg_instrs, n * total_per_iter)
            stats.mark_overhead_cycles += n * per_iter_overhead
            stats.switches += n * switch_rate
            if switch_rate != 0.0 and self._tr_exec:
                self._tr.counter(
                    "exec",
                    "thrash",
                    t,
                    n * switch_rate,
                    tid=PROC_TID_BASE + proc.pid,
                    run=self._tr_run,
                )
            stats.cpu_time += elapsed
            bucket = int(t)
            instrs = n * seg_instrs
            buckets[bucket] = buckets.get(bucket, 0.0) + instrs
            core_stall_frac[core_id] = raw_stall_frac
            cursor.consume(n)
            t += elapsed
            budget -= elapsed
            if budget <= _MIN_STEP_S and not cursor.finished:
                break

        return max(t, start + _MIN_STEP_S)

    def _fire_marks(self, proc: SimProcess, seg: Segment, core, now) -> MarkAction:
        """Fire the segment's entry marks (and give embedded marks their
        once-per-entry runtime visit); return the combined action."""
        n_entry = len(seg.entry_marks)
        fired = n_entry + len(seg.embedded)
        cycles = MARK_FIRE_CYCLES * n_entry
        proc.stats.mark_firings += n_entry
        proc.stats.mark_overhead_cycles += cycles
        if self._tr_phase and n_entry:
            # Highest-volume hook point (one event per entry-mark
            # firing): append the raw tuple, bypassing Recorder.instant,
            # to stay inside the tracing overhead budget.
            pid = proc.pid
            tid = PROC_TID_BASE + pid
            run = self._tr_run
            append = self._tr.events.append
            for ref in seg.entry_marks:
                append(
                    ("I", "phase", "phase", run, now, tid, None,
                     {"pid": pid, "phase": ref.phase_type})
                )
        if self.runtime is None:
            if not fired:
                return NO_ACTION
            action = _ENTRY_ACTIONS.get(n_entry)
            if action is None:
                action = _ENTRY_ACTIONS[n_entry] = MarkAction(extra_cycles=cycles)
            return action

        affinity = None
        extra = cycles
        for ref in seg.entry_marks:
            action = self.runtime.on_mark(proc, ref.mark_id, ref.phase_type, core, now)
            extra += action.extra_cycles
            if action.affinity is not None:
                affinity = action.affinity
        for emb in seg.embedded:
            action = self.runtime.on_mark(proc, emb.mark_id, emb.phase_type, core, now)
            extra += action.extra_cycles
            if action.affinity is not None and affinity is None:
                # Embedded marks may steer too, but an entry mark's
                # request (the section actually being entered) wins.
                affinity = action.affinity
        return MarkAction(affinity=affinity, extra_cycles=extra)

    @staticmethod
    def _embedded_overhead(proc: SimProcess, seg: Segment, runtime):
        """(mark overhead cycles, switch rate) per iteration contributed
        by the segment's embedded marks under *runtime*'s current
        decisions.  Runtime-dependent, so recomputed each quantum."""
        overhead = seg.embedded_rate * MARK_FIRE_CYCLES
        switch_rate = 0.0
        # Thrash needs at least two embedded marks decided to *distinct*
        # core types; with zero or one mark the answer is always the
        # plain fire overhead, no runtime consultation needed.
        if runtime is not None and len(seg.embedded) > 1:
            targets = {}
            for emb in seg.embedded:
                target = runtime.assignment_for(proc, emb.phase_type)
                if target is not None:
                    targets[emb.phase_type] = (target.name, emb.rate)
            names = {name for name, _ in targets.values()}
            if len(names) >= 2:
                # Marks of differing decided targets thrash: every
                # firing of a minority-target mark is a switch.
                dominant = max(targets.values(), key=lambda tr: tr[1])[0]
                thrash = sum(
                    rate for name, rate in targets.values() if name != dominant
                )
                switch_rate += thrash
                overhead += thrash * MIGRATION_CYCLES
        return overhead, switch_rate

    # -- fault handling ----------------------------------------------------------

    def _affinity_call_ok(self, proc: SimProcess, now: float) -> bool:
        """Whether this sched_setaffinity call survives injection; on
        failure the runtime is notified so it can degrade."""
        try:
            self.faults.check_affinity_call(proc.pid, now)
        except AffinitySyscallError as exc:
            if self._tr_fault:
                self._tr.instant(
                    "fault",
                    "affinity-fail",
                    now,
                    tid=PROC_TID_BASE + proc.pid,
                    args={"pid": proc.pid, "errno": exc.errno_name},
                    run=self._tr_run,
                )
            if self._notify_affinity is not None:
                self._notify_affinity(proc, False, exc, now)
            return False
        return True

    def _apply_fault(self, event, now: float) -> None:
        """Apply one scheduled hotplug/DVFS event, refusing transitions
        that would leave the machine unable to run anything."""
        if isinstance(event, HotplugEvent):
            cid = event.core_id
            if event.online:
                if not self._core_offline[cid]:
                    self.faults.note_skipped(event)
                    return
                self._core_offline[cid] = False
                self.scheduler.set_core_offline(cid, False, now)
                self.faults.note_applied(event)
                self._wake_core(cid, now)
            else:
                online = self._core_offline.count(False)
                if self._core_offline[cid] or online <= 1:
                    # Never take down the last online core.
                    self.faults.note_skipped(event)
                    return
                self._core_offline[cid] = True
                self._core_stall_frac[cid] = 0.0
                self.scheduler.set_core_offline(cid, True, now)
                self.faults.note_applied(event)
        elif isinstance(event, DvfsEvent):
            cid = event.core_id
            self._core_freq_scale[cid] = event.scale
            # Same product the stepped path computes per quantum.
            self._core_freq_eff[cid] = self._core_exec[cid][2] * event.scale
            self.faults.note_applied(event)
        elif isinstance(event, MemoryPressureEvent):
            self._core_mem_pressure[event.core_id] = event.shrink
            self.faults.note_applied(event)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown fault event {event!r}")
        if self._tr_fault:
            if isinstance(event, HotplugEvent):
                name = "hotplug"
                args = {"core": event.core_id, "online": event.online}
            elif isinstance(event, DvfsEvent):
                name = "dvfs"
                args = {"core": event.core_id, "scale": event.scale}
            else:
                name = "mem-pressure"
                args = {
                    "core": event.core_id,
                    "shrink": event.shrink,
                    "restored": event.shrink == 0.0,
                }
            self._tr.instant(
                "fault",
                name,
                now,
                tid=event.core_id,
                args=args,
                run=self._tr_run,
            )
        if self._tr_opensys and isinstance(event, HotplugEvent):
            # Open-system breakdown/repair windows are hotplug events;
            # mirror them into the opensys timeline so queue-depth and
            # latency excursions line up with capacity losses.
            self._tr.instant(
                "opensys",
                "breakdown" if not event.online else "repair",
                now,
                tid=event.core_id,
                args={"core": event.core_id},
                run=self._tr_run,
            )
        if self._notify_machine is not None:
            self._notify_machine(event, now, tuple(self._core_freq_scale))

    def _do_cancel(self, pid: int, now: float) -> None:
        """Dispatch one ``("cancel", pid)`` event (see
        :meth:`cancel_process` for the semantics)."""
        proc = None
        if pid in self._live:
            proc = self.scheduler.remove(pid, now)
        if proc is None:
            # The job completed before the cancellation fired, never
            # arrived, or the scheduler cannot surgically remove it
            # (the conservative base contract) — it runs to completion
            # and the cancellation is a miss.
            if self._tr_opensys:
                self._tr.instant(
                    "opensys",
                    "cancel",
                    now,
                    tid=PROC_TID_BASE + pid,
                    args={"pid": pid, "reason": cancelled_reason("missed")},
                    run=self._tr_run,
                )
            if self.on_cancel is not None:
                self.on_cancel(None, now)
            return
        self._live.discard(pid)
        self._result.cancelled.append(proc)
        if self._tr_opensys:
            self._tr.instant(
                "opensys",
                "cancel",
                now,
                tid=PROC_TID_BASE + proc.pid,
                args={
                    "pid": proc.pid,
                    "name": proc.name,
                    "reason": cancelled_reason("queued"),
                },
                run=self._tr_run,
            )
            self._tr.counter(
                "opensys",
                "jobs_in_system",
                now,
                float(len(self._live)),
                run=self._tr_run,
            )
        if self.runtime is not None:
            # Same teardown as completion: the runtime releases any
            # open measurement session for the departing process.
            self.runtime.on_process_end(proc, now)
        if self.on_cancel is not None:
            self.on_cancel(proc, now)

    def _finish(self, proc: SimProcess, now: float) -> None:
        proc.completion = now
        self._live.discard(proc.pid)
        self._result.completed.append(proc)
        if self._tr_exec:
            stats = proc.stats
            self._tr.instant(
                "exec",
                "end",
                now,
                tid=PROC_TID_BASE + proc.pid,
                args={
                    "pid": proc.pid,
                    "name": proc.name,
                    "instructions": stats.instructions,
                    "cpu_time": stats.cpu_time,
                    "switches": stats.switches,
                    "migrations": stats.migrations,
                    "mark_overhead_cycles": stats.mark_overhead_cycles,
                    "cycles_by_type": dict(stats.cycles_by_type),
                },
                run=self._tr_run,
            )
        if self._tr_opensys:
            self._tr.counter(
                "opensys",
                "jobs_in_system",
                now,
                float(len(self._live)),
                run=self._tr_run,
            )
        if self.runtime is not None:
            self.runtime.on_process_end(proc, now)
        if self.on_complete is not None:
            replacement = self.on_complete(proc, now)
            if replacement is not None:
                self.add_process(replacement, now)

    @property
    def now(self) -> float:
        return self._now

    def live_processes(self) -> int:
        return len(self._live)

    def snapshot_running(self) -> list:
        """Collect still-running processes into the result (call after
        :meth:`run`)."""
        running = []
        seen = {p.pid for p in self._result.completed}
        for queue_proc in self.scheduler.queued_processes():
            if queue_proc.pid not in seen:
                running.append(queue_proc)
        self._result.running = running
        return running
