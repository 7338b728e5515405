"""The open-system workload engine.

Every experiment in the paper is *closed*: a fixed mix of jobs runs to
completion and the report is mean process time.  This module drives the
same :class:`~repro.sim.executor.Simulation` event heap as an *open*
queueing system instead — jobs arrive under a seeded stochastic (or
deterministic-rate) arrival process, may be cancelled while queued or
mid-run, and the machine may lose cores to breakdown/repair windows —
so stock and phase-tuned scheduling can be compared on service metrics:
p50/p95/p99 sojourn time, queue depth, and throughput under offered
load.

Composition with the executor (DESIGN.md §15):

* every dynamic event is an ordinary heap event — arrivals via
  :meth:`Simulation.add_process`, departures via
  :meth:`Simulation.cancel_process`, breakdowns as hotplug pairs inside
  a :class:`~repro.sim.faults.FaultPlan` — so the executor needs no
  special cases: dynamic events interleave with core turns in time
  order, like faults do;
* determinism: each stochastic decision class (interarrival times,
  class mix, cancellation choices, breakdown windows) draws from its
  own dedicated ``random.Random`` stream keyed off the plan seed (the
  :meth:`FaultPlan.scaled` idiom), so enabling one knob never shifts
  the draws behind another, and a fixed seed replays bit-identically;
* a null plan (zero rate, no cancellations, no breakdowns) pushes no
  events and passes ``faults=None`` through untouched, so a zero-
  arrival open-system run over a closed workload is *bit-identical* to
  the equivalent :class:`~repro.workloads.workload.WorkloadRun`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro.errors import OpenSystemError
from repro.metrics.latency import (
    LatencySketch,
    QueueDepthSeries,
    per_class_throughput,
)
from repro.sim.executor import Simulation, SimulationResult
from repro.sim.faults import FaultPlan, HotplugEvent
from repro.sim.machine import MachineConfig
from repro.sim.process import SimProcess

__all__ = [
    "LoadController",
    "LoadPoint",
    "LoadSweep",
    "OpenSystemPlan",
    "OpenSystemResult",
    "OpenSystemRun",
    "service_capacity",
]

#: Open-system jobs get pids above this base so they can never collide
#: with a closed workload's slot-respawned pids (bounded by
#: slots x queue_length, far below this).
OPEN_PID_BASE = 1_000_000

# Dedicated RNG stream magics (FaultPlan.scaled idiom): one stream per
# stochastic decision class, so plans stay bit-identical when a knob
# they do not use is turned on.
_ARRIVAL_MAGIC = 0xA2217
_CLASS_MAGIC = 0xC7A55
_CANCEL_MAGIC = 0x7D0C5
_BREAKDOWN_MAGIC = 0xB7EAC


@dataclass(frozen=True)
class OpenSystemPlan:
    """A deterministic open-system schedule (pure, picklable data).

    Attributes:
        seed: RNG seed; the same plan replays bit-identically.
        rate: offered arrival rate in jobs per simulated second
            (``0.0`` disables arrivals entirely).
        horizon: arrival window — jobs arrive in ``[0, horizon)``.
        process: ``"poisson"`` (exponential interarrivals) or
            ``"uniform"`` (deterministic rate: one arrival every
            ``1/rate`` seconds).
        classes: benchmark names forming the per-class job mix; each
            arrival draws its class uniformly from this tuple (use
            repeats to weight a class).
        cancel_fraction: probability an arrival is later cancelled.
        cancel_delay: ``(lo, hi)`` seconds after its arrival at which a
            chosen job's cancellation fires (uniform draw).
        breakdowns: number of machine breakdown/repair windows to lay
            over the run (hotplug pairs; core 0 is never taken down,
            and single-core machines break down never).
        breakdown_length: ``(lo, hi)`` window length as a fraction of
            the horizon.
    """

    seed: int = 0
    rate: float = 0.0
    horizon: float = 120.0
    process: str = "poisson"
    classes: tuple = ()
    cancel_fraction: float = 0.0
    cancel_delay: tuple = (0.5, 8.0)
    breakdowns: int = 0
    breakdown_length: tuple = (0.05, 0.15)

    def __post_init__(self) -> None:
        if self.rate < 0.0 or not math.isfinite(self.rate):
            raise OpenSystemError(f"rate must be finite >= 0, got {self.rate}")
        if self.horizon <= 0.0:
            raise OpenSystemError(f"horizon must be positive, got {self.horizon}")
        if self.process not in ("poisson", "uniform"):
            raise OpenSystemError(
                f"process must be 'poisson' or 'uniform', got {self.process!r}"
            )
        if self.rate > 0.0 and not self.classes:
            raise OpenSystemError("a plan with arrivals needs a class mix")
        if not 0.0 <= self.cancel_fraction <= 1.0:
            raise OpenSystemError(
                f"cancel_fraction must be in [0, 1], got {self.cancel_fraction}"
            )
        lo, hi = self.cancel_delay
        if not 0.0 <= lo <= hi:
            raise OpenSystemError(f"bad cancel_delay window: {self.cancel_delay}")
        if self.breakdowns < 0:
            raise OpenSystemError(
                f"breakdowns must be >= 0, got {self.breakdowns}"
            )
        lo, hi = self.breakdown_length
        if not 0.0 < lo <= hi <= 1.0:
            raise OpenSystemError(
                f"breakdown_length fractions must satisfy 0 < lo <= hi <= 1: "
                f"{self.breakdown_length}"
            )

    @property
    def is_closed(self) -> bool:
        """True when this plan injects no dynamic events at all — the
        bit-identity-with-closed-runs regime."""
        return self.rate == 0.0 and self.breakdowns == 0

    def arrivals(self) -> tuple:
        """The deterministic arrival schedule: ``(time, class)`` pairs
        in time order, times in ``[0, horizon)``."""
        if self.rate == 0.0:
            return ()
        arrival_rng = random.Random((int(self.seed) << 4) ^ _ARRIVAL_MAGIC)
        class_rng = random.Random((int(self.seed) << 4) ^ _CLASS_MAGIC)
        classes = self.classes
        out = []
        if self.process == "uniform":
            step = 1.0 / self.rate
            t = step
        else:
            t = arrival_rng.expovariate(self.rate)
        while t < self.horizon:
            out.append((t, classes[class_rng.randrange(len(classes))]))
            if self.process == "uniform":
                t += step
            else:
                t += arrival_rng.expovariate(self.rate)
        return tuple(out)

    def cancellations(self, arrivals: tuple) -> tuple:
        """Which arrivals get cancelled, and when: ``(time, index)``
        pairs where *index* is the arrival's position in *arrivals*.
        Cancellation times always fall strictly after the job's
        arrival (it must exist to be cancelled); they may land after
        the job completes, in which case the cancellation is a miss.
        """
        if self.cancel_fraction == 0.0 or not arrivals:
            return ()
        rng = random.Random((int(self.seed) << 4) ^ _CANCEL_MAGIC)
        lo, hi = self.cancel_delay
        out = []
        for index, (t, _name) in enumerate(arrivals):
            if rng.random() < self.cancel_fraction:
                delay = rng.uniform(lo, hi)
                if delay <= 0.0:
                    delay = 1e-9
                out.append((t + delay, index))
        return tuple(out)

    def breakdown_plan(self, machine: MachineConfig) -> Optional[FaultPlan]:
        """Breakdown/repair windows as a hotplug
        :class:`~repro.sim.faults.FaultPlan`, or ``None`` when the plan
        schedules none (so fault-free runs build no injector at all).

        Routing breakdowns through the fault machinery — rather than
        raw heap pushes — buys every hotplug invariant for free: the
        executor drains the broken core's runqueue, placement avoids
        it, and the last online core is never taken down.
        """
        if self.breakdowns == 0 or len(machine) <= 1:
            return None
        rng = random.Random((int(self.seed) << 4) ^ _BREAKDOWN_MAGIC)
        lo, hi = self.breakdown_length
        events = []
        for _ in range(self.breakdowns):
            core = rng.randrange(1, len(machine))
            start = rng.uniform(0.05, 0.75) * self.horizon
            length = rng.uniform(lo, hi) * self.horizon
            end = min(start + length, 0.95 * self.horizon)
            events.append(HotplugEvent(start, core, online=False))
            events.append(HotplugEvent(end, core, online=True))
        return FaultPlan(seed=self.seed, hotplug=tuple(events))


@dataclass
class OpenSystemResult:
    """Service metrics of one open-system run.

    The job ledger is conserved by construction and checked by the
    property suite: ``arrived == completed + cancelled + in_flight``.
    ``cancel_misses`` counts cancellations that found their job already
    retired (or unremovable); they retire the *cancellation*, never the
    job, so they sit outside the ledger.
    """

    plan: OpenSystemPlan
    horizon: float
    arrived: int
    completed: int
    cancelled: int
    cancel_misses: int
    sojourn: LatencySketch
    wait: LatencySketch
    depth: QueueDepthSeries
    completed_by_class: dict = field(default_factory=dict)
    sim_result: Optional[SimulationResult] = None

    @property
    def in_flight(self) -> int:
        """Open jobs still in the system when the run stopped."""
        return self.arrived - self.completed - self.cancelled

    @property
    def throughput(self) -> float:
        """Completed open jobs per simulated second."""
        return self.completed / self.horizon if self.horizon > 0 else 0.0

    def class_throughput(self) -> dict:
        return per_class_throughput(self.completed_by_class, self.horizon)

    @property
    def saturated(self) -> bool:
        """Backlog-growth heuristic: the time-weighted mean queue depth
        over the second half of the horizon exceeds twice the first
        half plus a small absolute slack — the queue is growing, not
        cycling, i.e. offered load exceeds sustainable capacity."""
        half = self.horizon / 2.0
        early = self.depth.mean(0.0, half)
        late = self.depth.mean(half, self.horizon)
        return late > 2.0 * early + 2.0

    def to_dict(self) -> dict:
        """JSON-able image (CI artifacts, cross-run determinism diffs)."""
        return {
            "rate": self.plan.rate,
            "horizon": self.horizon,
            "arrived": self.arrived,
            "completed": self.completed,
            "cancelled": self.cancelled,
            "cancel_misses": self.cancel_misses,
            "in_flight": self.in_flight,
            "throughput": self.throughput,
            "saturated": self.saturated,
            "sojourn": self.sojourn.to_dict(),
            "wait": self.wait.to_dict(),
            "depth_mean": self.depth.mean(0.0, self.horizon),
            "depth_peak": self.depth.peak(),
            "class_throughput": self.class_throughput(),
        }


class OpenSystemRun:
    """One open-system plan bound to a machine and technique.

    Mirrors :class:`~repro.workloads.workload.WorkloadRun`: each
    distinct job class is prepared once through the static pipeline
    (tuned or baseline), and every arrival of that class shares the
    immutable trace template.  Optionally composes with a closed
    workload whose slot queues seed the system at ``t = 0`` — with a
    null plan that degenerates to exactly the closed run (the
    bit-identity regression the property suite pins).

    Args:
        plan: the open-system schedule.
        machine: the AMP to run on.
        strategy: marking strategy for tuned runs; ``None`` is stock.
        typing_overrides: optional ``{benchmark: BlockTyping}``.
        cache: static-pipeline cache (process default when omitted).
        closed_workload: optional
            :class:`~repro.workloads.workload.Workload` seeding the
            system with slot-respawned jobs, exactly as a closed run
            would.
    """

    def __init__(
        self,
        plan: OpenSystemPlan,
        machine: MachineConfig,
        strategy=None,
        typing_overrides: Optional[dict] = None,
        cache=None,
        closed_workload=None,
    ):
        # Imported here, not at module top: workloads imports sim
        # submodules, and this keeps repro.sim importable in any order.
        from repro.tuning.pipeline import run_trace
        from repro.workloads.spec import spec_benchmark
        from repro.workloads.workload import WorkloadRun, _PreparedBenchmark

        self.plan = plan
        self.machine = machine
        self.strategy = strategy
        typing_overrides = typing_overrides or {}
        self._closed = None
        if closed_workload is not None:
            self._closed = WorkloadRun(
                closed_workload,
                machine,
                strategy,
                typing_overrides=typing_overrides,
                cache=cache,
            )
        self._prepared: dict = {}
        for name in sorted(set(plan.classes)):
            if self._closed is not None and name in self._closed._prepared:
                self._prepared[name] = self._closed._prepared[name]
                continue
            benchmark = spec_benchmark(name)
            trace, isolated = run_trace(
                benchmark.program,
                strategy,
                machine,
                benchmark.spec,
                typing=typing_overrides.get(name),
                cache=cache,
            )
            self._prepared[name] = _PreparedBenchmark(benchmark, trace, isolated)
        # Per-run bookkeeping, reset by run().
        self._completion_times: list = []
        self._cancel_times: list = []
        self._cancel_misses = 0
        self._sojourn = LatencySketch()
        self._wait = LatencySketch()
        self._completed_by_class: dict = {}

    # -- pure plan views ----------------------------------------------------

    def mean_isolated_seconds(self) -> float:
        """Mean isolated service time across the prepared job classes
        (the service-time half of :func:`service_capacity`)."""
        if not self._prepared:
            raise OpenSystemError("no job classes prepared")
        return sum(p.isolated_seconds for p in self._prepared.values()) / len(
            self._prepared
        )

    def _spawn_open(self, index: int, name: str) -> SimProcess:
        prepared = self._prepared[name]
        return SimProcess(
            OPEN_PID_BASE + 1 + index,
            name,
            prepared.trace_template,
            self.machine.all_cores_mask,
            isolated_time=prepared.isolated_seconds,
        )

    # -- simulation callbacks ---------------------------------------------

    def _on_complete(self, proc: SimProcess, now: float):
        if proc.pid > OPEN_PID_BASE:
            self._completion_times.append(now)
            sojourn = now - proc.arrival
            self._sojourn.add(sojourn)
            # Wait = time in the system not spent executing: sojourn
            # minus accumulated CPU time, i.e. queueing delay across
            # the job's whole life (not just before first dispatch).
            self._wait.add(max(0.0, sojourn - proc.stats.cpu_time))
            count = self._completed_by_class
            count[proc.name] = count.get(proc.name, 0) + 1
            return None
        if self._closed is not None:
            return self._closed._on_complete(proc, now)
        return None

    def _on_cancel(self, proc: Optional[SimProcess], now: float) -> None:
        if proc is None:
            self._cancel_misses += 1
        else:
            self._cancel_times.append(now)

    # -- execution ----------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        runtime=None,
        scheduler=None,
        contention_alpha: float = 0.4,
        pollution_beta: float = 0.6,
        faults=None,
    ) -> OpenSystemResult:
        """Run the open system for *until* simulated seconds (defaults
        to the plan horizon).

        The arrival/cancellation schedules and breakdown plan are fully
        materialised before the first event fires, so the run is a pure
        function of (plan, machine, technique, knobs) — fixed seeds
        replay bit-identically in every executor mode.
        """
        plan = self.plan
        horizon = plan.horizon if until is None else until
        self._completion_times = []
        self._cancel_times = []
        self._cancel_misses = 0
        self._sojourn = LatencySketch()
        self._wait = LatencySketch()
        self._completed_by_class = {}

        fault_arg = faults
        if fault_arg is None:
            fault_arg = plan.breakdown_plan(self.machine)

        arrivals = plan.arrivals()
        simulation = Simulation(
            self.machine,
            scheduler=scheduler,
            runtime=runtime,
            contention_alpha=contention_alpha,
            pollution_beta=pollution_beta,
            on_complete=self._on_complete,
            on_cancel=self._on_cancel,
            faults=fault_arg,
        )
        if self._closed is not None:
            for slot in range(self._closed.workload.slots):
                simulation.add_process(self._closed._spawn(slot), 0.0)
        for index, (t, name) in enumerate(arrivals):
            simulation.add_process(self._spawn_open(index, name), t)
        for t, index in plan.cancellations(arrivals):
            simulation.cancel_process(OPEN_PID_BASE + 1 + index, t)
        sim_result = simulation.run(horizon)
        simulation.snapshot_running()
        arrived_times = [t for t, _name in arrivals if t <= horizon]
        depth = QueueDepthSeries.from_events(
            arrived_times,
            self._completion_times + self._cancel_times,
        )
        return OpenSystemResult(
            plan=plan,
            horizon=horizon,
            arrived=len(arrived_times),
            completed=len(self._completion_times),
            cancelled=len(self._cancel_times),
            cancel_misses=self._cancel_misses,
            sojourn=self._sojourn,
            wait=self._wait,
            depth=depth,
            completed_by_class=dict(self._completed_by_class),
            sim_result=sim_result,
        )


def service_capacity(machine: MachineConfig, mean_isolated_seconds: float) -> float:
    """Measured service capacity in jobs per second.

    The machine completes one mean job per ``mean_isolated_seconds`` on
    its fastest core type; slower cores contribute their frequency
    ratio.  ``mean_isolated_seconds`` comes from the static pipeline's
    isolated-run simulation of each prepared class
    (:meth:`OpenSystemRun.mean_isolated_seconds`), so the capacity is
    *measured* against the same cost model the run uses, not assumed.
    This ignores contention and scheduling loss, making it an upper
    bound — which is the right normaliser for an offered-load sweep
    (λ/capacity = 1.0 is genuinely unsustainable).
    """
    if mean_isolated_seconds <= 0:
        raise OpenSystemError(
            f"mean isolated seconds must be positive, got {mean_isolated_seconds}"
        )
    freqs = [core.ctype.freq_ghz for core in machine.cores]
    effective_cores = sum(freqs) / max(freqs)
    return effective_cores / mean_isolated_seconds


@dataclass(frozen=True)
class LoadPoint:
    """One point of an offered-load sweep."""

    fraction: float
    rate: float
    result: OpenSystemResult


@dataclass(frozen=True)
class LoadSweep:
    """An offered-load sweep with its saturation verdict."""

    capacity: float
    points: tuple

    @property
    def saturation_fraction(self) -> Optional[float]:
        """The lowest swept load fraction whose run saturated, or
        ``None`` when every point stayed stable."""
        for point in self.points:
            if point.result.saturated:
                return point.fraction
        return None


class LoadController:
    """Sweeps offered load as a fraction of measured capacity.

    Args:
        base_plan: plan template; each sweep point replaces its
            ``rate`` with ``fraction * capacity``.
        capacity: service capacity in jobs/second (see
            :func:`service_capacity`).
        runner: callable ``(plan) -> OpenSystemResult`` executing one
            point (typically a closure over an :class:`OpenSystemRun`
            factory so each point gets a fresh engine).
    """

    def __init__(
        self,
        base_plan: OpenSystemPlan,
        capacity: float,
        runner: Callable[[OpenSystemPlan], OpenSystemResult],
    ):
        if capacity <= 0:
            raise OpenSystemError(f"capacity must be positive, got {capacity}")
        self.base_plan = base_plan
        self.capacity = capacity
        self.runner = runner

    def plan_at(self, fraction: float) -> OpenSystemPlan:
        if fraction < 0:
            raise OpenSystemError(
                f"load fraction must be >= 0, got {fraction}"
            )
        return replace(self.base_plan, rate=fraction * self.capacity)

    def sweep(self, fractions, stop_past_saturation: int = 0) -> LoadSweep:
        """Run every load fraction in order; with
        *stop_past_saturation* > 0, stop after that many consecutive
        saturated points (the remaining grid can only saturate harder).
        """
        points = []
        saturated_streak = 0
        for fraction in fractions:
            result = self.runner(self.plan_at(fraction))
            points.append(
                LoadPoint(fraction=fraction, rate=result.plan.rate, result=result)
            )
            if result.saturated:
                saturated_streak += 1
                if stop_past_saturation and saturated_streak >= stop_past_saturation:
                    break
            else:
                saturated_streak = 0
        return LoadSweep(capacity=self.capacity, points=tuple(points))
