"""Representative-section IPC monitoring.

"The decision about the optimal core for that phase type is made by
monitoring representative sections from the cluster of sections that
have the same phase type ... monitoring all sections will not be
necessary."

A :class:`SectionMonitor` opens at most one measurement per process: at
a phase mark for an unsampled (phase type, core type) pair it acquires a
PAPI-style counter slot and snapshots the process's retired-instruction
and cycle counters for the current core type; the measurement closes at
the process's next phase mark, yielding IPC = Δinstructions / Δcycles —
exactly the paper's formula.  If no counter slot is free the measurement
is simply retried at a later mark ("programs wait for access to the
counters"; our deferred retry is the zero-cost realisation, and the
bank's rejection statistics quantify how rarely it happens).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.sim.core import CoreType
from repro.sim.counters import CounterBank, CounterSession
from repro.sim.process import SimProcess

#: Sentinel: Algorithm 2 found no significant gap, so the phase type is
#: deliberately left unconstrained (see the runtime's ``pin_ties``).
FREE = "free"


@dataclass
class PhaseState:
    """Per-process tuning state of one phase type.

    Attributes:
        samples: accepted IPC per core-type name (the value Algorithm 2
            sees; under median-of-k sampling this is the median of
            ``raw_samples``).
        raw_samples: individual IPC observations per core-type name,
            kept while collecting towards the runtime's
            ``samples_per_type`` quota (outlier rejection).
        decided: the chosen core type once Algorithm 2 has run.
        firings: marks of this type fired so far (drives the optional
            feedback policy's re-sampling).
        open_failures: consecutive failed counter acquisitions while
            exploring; bounds the deferred retry (see the runtime's
            ``max_monitor_retries``).
        epoch: the runtime's machine epoch this state was built under;
            a hotplug/DVFS event bumps the runtime epoch and stale
            states re-explore at their next mark.
    """

    samples: dict = field(default_factory=dict)
    raw_samples: dict = field(default_factory=dict)
    decided: Optional[CoreType] = None
    firings: int = 0
    open_failures: int = 0
    epoch: int = 0

    def reset(self) -> None:
        """Forget everything (feedback adaptation / re-exploration)."""
        self.samples.clear()
        self.raw_samples.clear()
        self.decided = None
        self.firings = 0
        self.open_failures = 0


@dataclass
class _OpenMeasurement:
    session: CounterSession
    phase_type: int
    ctype_name: str


class SectionMonitor:
    """Opens and closes per-process section measurements.

    Args:
        counters: the machine's counter bank.
        min_sample_cycles: measurements shorter than this are discarded
            (not enough signal to trust the IPC).
        noise: relative measurement noise (uniform, +/-).  Hardware
            counters over short sections are never exact; the noise also
            breaks the exact IPC ties core-insensitive code produces, so
            its core choice is unbiased — as it is on real hardware.
        seed: noise generator seed (determinism).
    """

    def __init__(
        self,
        counters: CounterBank,
        min_sample_cycles: float = 10_000.0,
        noise: float = 0.02,
        seed: int = 0,
    ):
        self.counters = counters
        self.min_sample_cycles = min_sample_cycles
        self.noise = noise
        self._rng = random.Random(seed)
        self.completed_samples = 0
        self.discarded_samples = 0
        #: Optional fault injector perturbing counter reads
        #: (:mod:`repro.sim.faults`); ``None`` leaves reads untouched.
        self.injector = None

    def try_open(
        self, proc: SimProcess, phase_type: int, core, now: float = 0.0
    ) -> bool:
        """Start measuring *proc*'s upcoming section on *core*.

        Returns False (and measures nothing) if the process already has
        an open measurement or no counter slot is free.
        """
        if proc.monitor_session is not None:
            return False
        ctype: CoreType = core.ctype
        session = self.counters.try_acquire(
            core.cid,
            proc.pid,
            proc.stats.instrs_by_type.get(ctype.name, 0.0),
            proc.stats.cycles_by_type.get(ctype.name, 0.0),
            now=now,
        )
        if session is None:
            return False
        proc.monitor_session = _OpenMeasurement(session, phase_type, ctype.name)
        return True

    def close(self, proc: SimProcess) -> Optional[tuple]:
        """Close *proc*'s open measurement, if any.

        Returns ``(phase_type, ctype_name, ipc)`` when the measurement
        yielded a usable sample, else ``None``.
        """
        open_measurement: Optional[_OpenMeasurement] = proc.monitor_session
        if open_measurement is None:
            return None
        proc.monitor_session = None
        self.counters.release(open_measurement.session)

        name = open_measurement.ctype_name
        d_instrs = (
            proc.stats.instrs_by_type.get(name, 0.0)
            - open_measurement.session.start_instrs
        )
        d_cycles = (
            proc.stats.cycles_by_type.get(name, 0.0)
            - open_measurement.session.start_cycles
        )
        if self.injector is not None:
            # Clock-drift fault: the cycle counter observed on this core
            # runs fast or slow by a static factor, so the measured
            # cycle delta (and hence the IPC) is consistently skewed.
            # No RNG is drawn, so zero-drift plans stay bit-identical.
            # getattr: stub injectors only implement the read hooks.
            read_skew = getattr(self.injector, "cycle_skew", None)
            if read_skew is not None:
                skew = read_skew(open_measurement.session.core_id)
                if skew != 1.0:
                    d_cycles *= skew
        if d_cycles < self.min_sample_cycles or d_instrs <= 0:
            self.discarded_samples += 1
            return None
        self.completed_samples += 1
        ipc = d_instrs / d_cycles
        if self.noise > 0:
            ipc *= 1.0 + self._rng.uniform(-self.noise, self.noise)
        if self.injector is not None:
            # Injected counter-read faults: extra noise and, rarely, a
            # wildly corrupt reading (the runtime's outlier rejection is
            # the defence, not this code path).
            ipc *= self.injector.sample_read_factor()
        return (open_measurement.phase_type, name, ipc)
