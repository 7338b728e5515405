"""Deterministic fault injection for the AMP simulator.

The paper's dynamic machinery leans on real-world services that fail in
practice: hardware counters are a bounded resource behind a flaky API
(Section III makes programs *wait* for them), ``sched_setaffinity`` can
return EPERM/EINVAL, cores go offline under hotplug, and DVFS governors
re-clock cores underneath a tuned assignment.  A :class:`FaultPlan`
describes a deterministic, seed-driven schedule of such faults; a
:class:`FaultInjector` realises the plan against one running
:class:`~repro.sim.executor.Simulation`.

Fault classes
=============

``counter_fail_rate``
    Probability a counter-slot acquisition spuriously fails (EAGAIN on
    top of genuine slot contention).
``counter_corrupt_rate``
    Probability a counter read returns garbage: the measured IPC is
    multiplied by a wild factor.  Outlier rejection in the runtime
    (median-of-k sampling) is the intended defence.
``ipc_noise``
    Extra multiplicative noise amplitude on every IPC sample, on top of
    the monitor's intrinsic noise.
``affinity_fail_rate``
    Probability one ``sched_setaffinity`` call fails with EPERM/EINVAL;
    the mask is left unchanged and the runtime is notified.
``slot_outages``
    Timed windows during which a core loses counter slots entirely
    (another profiler grabbed them) — the slot-exhaustion fault.
``hotplug``
    Timed core offline/online events.  The executor drains the core's
    runqueue, placement avoids offline cores, and affinity masks whose
    cores are all offline are broken kernel-style (fall back to any
    online core).  The last online core is never taken down.
``dvfs``
    Timed per-core frequency steps (a multiplier on nominal frequency).
``mem_pressure``
    Timed per-core effective-L2 shrinkage: a co-located bully (another
    VM, a prefetch storm) evicts the fraction ``shrink`` of the core's
    L2, so that share of a segment's L2-resident accesses pays the DRAM
    penalty while the pressure lasts.  A ``shrink`` of ``0.0`` restores
    the full cache.
``clock_drift``
    Static per-core multiplicative skew on *observed* cycle counters
    (TSC drift between sockets, unsynchronised APERF/MPERF): every
    cycle delta the monitor reads on a drifted core is off by the
    core's ``skew`` factor, so IPC samples taken there are consistently
    wrong.  Execution itself is unaffected — only the measurement lies,
    which is what the runtime's median-of-k sampling rung must absorb.

Determinism: the plan is pure data and the injector draws every
stochastic decision from one ``random.Random(plan.seed)`` stream, so a
given (plan, workload) pair replays bit-identically.  A null plan (all
rates zero, no events) never draws and never perturbs anything, so it
leaves simulations byte-identical to running with no plan at all.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.errors import AffinitySyscallError, FaultError

__all__ = [
    "ClockDrift",
    "DvfsEvent",
    "FaultInjector",
    "FaultPlan",
    "HotplugEvent",
    "MemoryPressureEvent",
    "SlotOutage",
]


@dataclass(frozen=True)
class HotplugEvent:
    """One core going offline (``online=False``) or back online."""

    time: float
    core_id: int
    online: bool


@dataclass(frozen=True)
class DvfsEvent:
    """A frequency step: core ``core_id`` runs at ``scale`` × nominal."""

    time: float
    core_id: int
    scale: float


@dataclass(frozen=True)
class MemoryPressureEvent:
    """Core ``core_id`` loses the fraction ``shrink`` of its effective
    L2 from time ``time`` on (``shrink=0.0`` restores it)."""

    time: float
    core_id: int
    shrink: float


@dataclass(frozen=True)
class ClockDrift:
    """Core ``core_id``'s cycle counter reads are skewed by the
    multiplicative factor ``skew`` (1.0 means an exact counter)."""

    core_id: int
    skew: float


@dataclass(frozen=True)
class SlotOutage:
    """A window ``[start, end)`` during which ``core_id`` loses
    ``slots`` counter slots."""

    start: float
    end: float
    core_id: int
    slots: int = 1


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic fault schedule (pure, picklable data).

    All rates are probabilities in ``[0, 1]``; the default plan is null
    (injects nothing).  Build scaled plans for sweeps with
    :meth:`scaled`.
    """

    seed: int = 0
    counter_fail_rate: float = 0.0
    counter_corrupt_rate: float = 0.0
    ipc_noise: float = 0.0
    affinity_fail_rate: float = 0.0
    slot_outages: tuple = ()
    hotplug: tuple = ()
    dvfs: tuple = ()
    mem_pressure: tuple = ()
    clock_drift: tuple = ()

    def __post_init__(self) -> None:
        for name in (
            "counter_fail_rate",
            "counter_corrupt_rate",
            "ipc_noise",
            "affinity_fail_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise FaultError(f"{name} must be in [0, 1], got {value}")
        for event in self.hotplug:
            if event.time < 0:
                raise FaultError(f"hotplug event before t=0: {event}")
        for event in self.dvfs:
            if event.time < 0:
                raise FaultError(f"DVFS event before t=0: {event}")
            if not event.scale > 0:
                raise FaultError(f"DVFS scale must be positive: {event}")
        for outage in self.slot_outages:
            if outage.start < 0 or outage.end < outage.start:
                raise FaultError(f"bad slot outage window: {outage}")
            if outage.slots < 0:
                raise FaultError(f"negative outage slot count: {outage}")
        for event in self.mem_pressure:
            if event.time < 0:
                raise FaultError(f"memory-pressure event before t=0: {event}")
            if not 0.0 <= event.shrink <= 1.0:
                raise FaultError(
                    f"memory-pressure shrink must be in [0, 1]: {event}"
                )
        for drift in self.clock_drift:
            if not (drift.skew > 0 and math.isfinite(drift.skew)):
                raise FaultError(
                    f"clock-drift skew must be positive and finite: {drift}"
                )

    @property
    def is_null(self) -> bool:
        """True when this plan injects nothing at all."""
        return (
            self.counter_fail_rate == 0.0
            and self.counter_corrupt_rate == 0.0
            and self.ipc_noise == 0.0
            and self.affinity_fail_rate == 0.0
            and not self.slot_outages
            and not self.hotplug
            and not self.dvfs
            and not self.mem_pressure
            and not self.clock_drift
        )

    @classmethod
    def scaled(
        cls,
        rate: float,
        machine,
        horizon: float,
        seed: int = 0,
        mem_pressure_rate: float = 0.0,
        clock_drift_rate: float = 0.0,
    ) -> "FaultPlan":
        """A plan whose intensity across every fault class scales with
        one knob — the x-axis of ``extras.fault_resilience``.

        Args:
            rate: overall fault intensity in ``[0, 1]``; 0 gives the
                null plan.
            machine: the :class:`~repro.sim.machine.MachineConfig` the
                plan will run against (bounds core ids).
            horizon: simulation length in seconds (bounds event times).
            seed: RNG seed; same arguments reproduce the same plan.
            mem_pressure_rate: intensity of timed memory-pressure
                windows in ``[0, 1]``.  Off by default, and drawn from
                its own RNG stream, so plans built without it are
                bit-identical to plans built before the knob existed.
            clock_drift_rate: magnitude of static per-core cycle-counter
                skew in ``[0, 1]``.  Off by default and drawn from its
                own RNG stream for the same bit-identity reason.
        """
        if not 0.0 <= rate <= 1.0:
            raise FaultError(f"fault rate must be in [0, 1], got {rate}")
        if not 0.0 <= mem_pressure_rate <= 1.0:
            raise FaultError(
                f"mem_pressure_rate must be in [0, 1], got {mem_pressure_rate}"
            )
        if not 0.0 <= clock_drift_rate <= 1.0:
            raise FaultError(
                f"clock_drift_rate must be in [0, 1], got {clock_drift_rate}"
            )
        if horizon <= 0:
            raise FaultError(f"horizon must be positive, got {horizon}")
        mem_pressure = ()
        if mem_pressure_rate > 0.0:
            mem_pressure = cls._scaled_mem_pressure(
                mem_pressure_rate, len(machine), horizon, seed
            )
        clock_drift = ()
        if clock_drift_rate > 0.0:
            clock_drift = cls._scaled_clock_drift(
                clock_drift_rate, len(machine), seed
            )
        if rate == 0.0:
            return cls(
                seed=seed, mem_pressure=mem_pressure, clock_drift=clock_drift
            )
        rng = random.Random((int(seed) << 4) ^ 0x5FA17)
        n_cores = len(machine)
        hotplug = []
        # Core 0 is never hot-unplugged (like cpu0 on most kernels), so
        # at least one core is always online whatever the plan says.
        if n_cores > 1:
            for _ in range(round(rate * 8)):
                core = rng.randrange(1, n_cores)
                start = rng.uniform(0.05, 0.70) * horizon
                length = rng.uniform(0.05, 0.25) * horizon
                end = min(start + length, 0.95 * horizon)
                hotplug.append(HotplugEvent(start, core, online=False))
                hotplug.append(HotplugEvent(end, core, online=True))
        dvfs = []
        for _ in range(round(rate * 10)):
            dvfs.append(
                DvfsEvent(
                    rng.uniform(0.05, 0.90) * horizon,
                    rng.randrange(n_cores),
                    rng.uniform(0.55, 1.0),
                )
            )
        outages = []
        for _ in range(round(rate * 6)):
            start = rng.uniform(0.0, 0.9) * horizon
            outages.append(
                SlotOutage(
                    start,
                    start + rng.uniform(0.02, 0.10) * horizon,
                    rng.randrange(n_cores),
                    slots=1,
                )
            )
        return cls(
            seed=seed,
            counter_fail_rate=0.5 * rate,
            counter_corrupt_rate=0.35 * rate,
            ipc_noise=0.25 * rate,
            affinity_fail_rate=0.5 * rate,
            slot_outages=tuple(outages),
            hotplug=tuple(hotplug),
            dvfs=tuple(dvfs),
            mem_pressure=mem_pressure,
            clock_drift=clock_drift,
        )

    @staticmethod
    def _scaled_mem_pressure(
        rate: float, n_cores: int, horizon: float, seed: int
    ) -> tuple:
        """Paired shrink/restore windows for :meth:`scaled`.  Drawn from
        a dedicated RNG stream: enabling the knob must not shift the
        draws behind the pre-existing fault classes."""
        rng = random.Random((int(seed) << 4) ^ 0x3E77)
        events = []
        for _ in range(round(rate * 6)):
            core = rng.randrange(n_cores)
            start = rng.uniform(0.05, 0.70) * horizon
            end = min(
                start + rng.uniform(0.05, 0.30) * horizon, 0.95 * horizon
            )
            shrink = rng.uniform(0.3, 0.9) * rate
            events.append(MemoryPressureEvent(start, core, shrink))
            events.append(MemoryPressureEvent(end, core, 0.0))
        return tuple(events)

    @staticmethod
    def _scaled_clock_drift(rate: float, n_cores: int, seed: int) -> tuple:
        """Per-core skew factors for :meth:`scaled`.  Dedicated RNG
        stream: enabling the knob must leave every draw behind the
        other fault classes bit-identical."""
        rng = random.Random((int(seed) << 4) ^ 0xC1D7)
        drifts = []
        for core in range(n_cores):
            # Real TSC drift is parts-per-thousand; scale up to a few
            # percent at full rate so the skew is visible to sampling.
            magnitude = rng.uniform(0.005, 0.08) * rate
            sign = 1.0 if rng.random() < 0.5 else -1.0
            drifts.append(ClockDrift(core, 1.0 + sign * magnitude))
        return tuple(drifts)


class FaultInjector:
    """Runtime realisation of a :class:`FaultPlan` for one simulation.

    One injector belongs to exactly one :class:`Simulation` run: it owns
    the RNG stream for the stochastic fault classes and the counters of
    what actually fired.  Build a fresh one (or pass the plan and let
    ``Simulation`` build it) for every run so runs stay independent.
    """

    def __init__(self, plan: FaultPlan, machine):
        n_cores = len(machine)
        for event in plan.hotplug:
            if not 0 <= event.core_id < n_cores:
                raise FaultError(f"hotplug core id out of range: {event}")
        for event in plan.dvfs:
            if not 0 <= event.core_id < n_cores:
                raise FaultError(f"DVFS core id out of range: {event}")
        for outage in plan.slot_outages:
            if not 0 <= outage.core_id < n_cores:
                raise FaultError(f"outage core id out of range: {outage}")
        for event in plan.mem_pressure:
            if not 0 <= event.core_id < n_cores:
                raise FaultError(
                    f"memory-pressure core id out of range: {event}"
                )
        for drift in plan.clock_drift:
            if not 0 <= drift.core_id < n_cores:
                raise FaultError(f"clock-drift core id out of range: {drift}")
        self.plan = plan
        self.machine = machine
        self._rng = random.Random(plan.seed)
        # Dense per-core skew table; later plan entries win.
        self._cycle_skew = [1.0] * n_cores
        for drift in plan.clock_drift:
            self._cycle_skew[drift.core_id] = drift.skew
        #: Count of faults that actually fired, per class.
        self.fired: dict = {
            "counter_fail": 0,
            "counter_corrupt": 0,
            "slot_outage_hits": 0,
            "affinity_fail": 0,
            "hotplug": 0,
            "dvfs": 0,
            "mem_pressure": 0,
            "clock_drift": 0,
            "skipped_events": 0,
        }

    # -- scheduled faults ---------------------------------------------------

    def scheduled_events(self) -> list:
        """All timed events, for the simulation to enqueue at start."""
        return (
            list(self.plan.hotplug)
            + list(self.plan.dvfs)
            + list(self.plan.mem_pressure)
        )

    def note_applied(self, event) -> None:
        if isinstance(event, HotplugEvent):
            kind = "hotplug"
        elif isinstance(event, MemoryPressureEvent):
            kind = "mem_pressure"
        else:
            kind = "dvfs"
        self.fired[kind] += 1

    def note_skipped(self, event) -> None:
        """An event that could not be applied safely (e.g. offlining the
        last online core) was dropped, not crashed on."""
        self.fired["skipped_events"] += 1

    # -- stochastic faults (no RNG draws at zero rates) ---------------------

    def counter_acquire_fails(self, core_id: int, now: float) -> bool:
        """Whether this counter acquisition spuriously fails."""
        rate = self.plan.counter_fail_rate
        if rate <= 0.0:
            return False
        if self._rng.random() < rate:
            self.fired["counter_fail"] += 1
            return True
        return False

    def slots_unavailable(self, core_id: int, now: float) -> int:
        """Counter slots of *core_id* currently lost to an outage."""
        taken = 0
        for outage in self.plan.slot_outages:
            if outage.core_id == core_id and outage.start <= now < outage.end:
                taken += outage.slots
        if taken:
            self.fired["slot_outage_hits"] += 1
        return taken

    def sample_read_factor(self) -> float:
        """Multiplicative perturbation of one IPC counter read: extra
        noise, plus (rarely) a wild corruption factor."""
        factor = 1.0
        noise = self.plan.ipc_noise
        if noise > 0.0:
            factor *= 1.0 + self._rng.uniform(-noise, noise)
        rate = self.plan.counter_corrupt_rate
        if rate > 0.0 and self._rng.random() < rate:
            self.fired["counter_corrupt"] += 1
            # Up to ~20x off in either direction: clearly an outlier,
            # which is exactly what median-of-k sampling must reject.
            factor *= math.exp(self._rng.uniform(-3.0, 3.0))
        return factor

    def cycle_skew(self, core_id: int) -> float:
        """Multiplicative skew on cycle counts observed on *core_id*
        (1.0 means the counter is exact).  Draws no RNG: the skew is
        static plan data, so reading it never perturbs other fault
        streams."""
        skew = self._cycle_skew[core_id]
        if skew != 1.0:
            self.fired["clock_drift"] += 1
        return skew

    def check_affinity_call(self, pid: int, now: float) -> None:
        """Raise :class:`AffinitySyscallError` when this affinity
        syscall is chosen to fail; return normally otherwise."""
        rate = self.plan.affinity_fail_rate
        if rate <= 0.0:
            return
        if self._rng.random() < rate:
            self.fired["affinity_fail"] += 1
            errno = "EPERM" if self._rng.random() < 0.5 else "EINVAL"
            raise AffinitySyscallError(errno, pid)
