"""Scheduler interface.

The executor drives a scheduler through this small surface: ready
processes are enqueued (respecting affinity), each free core asks for
its next process, and preempted processes are requeued.  Idle cores may
steal.  A ``waker`` callback lets the scheduler wake a sleeping core
when work arrives for it.
"""

from __future__ import annotations

import abc
from typing import Callable, Optional

from repro.sim.machine import MachineConfig
from repro.sim.process import SimProcess


class Scheduler(abc.ABC):
    """Abstract scheduler over per-core runqueues."""

    #: Timeslice in seconds; the executor runs quanta of this length.
    timeslice: float = 0.05

    #: Recorder for dispatch-decision events, installed by the executor
    #: when tracing is enabled with the ``sched`` category; ``None``
    #: (the default) keeps every decision site a single falsy check.
    telemetry = None

    def attach(self, machine: MachineConfig, waker: Callable) -> None:
        """Bind to *machine*; *waker(core_id, now)* wakes an idle core."""
        self.machine = machine
        self.waker = waker

    @abc.abstractmethod
    def enqueue(self, proc: SimProcess, now: float) -> None:
        """Place a ready process on some allowed core's queue."""

    @abc.abstractmethod
    def pick(self, core_id: int, now: float) -> Optional[SimProcess]:
        """Pop the next process for *core_id* (stealing if allowed)."""

    @abc.abstractmethod
    def requeue(self, proc: SimProcess, core_id: int, now: float) -> None:
        """Return a preempted process to a queue (it may have a new
        affinity mask that excludes *core_id*)."""

    @abc.abstractmethod
    def queue_length(self, core_id: int) -> int:
        """Ready processes currently queued on *core_id*."""

    def set_core_offline(self, core_id: int, offline: bool, now: float) -> None:
        """A hotplug event took *core_id* offline (or brought it back).

        Implementations with internal queues should migrate work queued
        on an offlined core and stop placing new work there; the default
        is a no-op for schedulers without placement state.
        """

    def remove(self, pid: int, now: float) -> Optional[SimProcess]:
        """Remove and return the queued process with *pid* (open-system
        cancellation), or ``None`` when it is not queued.

        The conservative default supports no removal at all: the
        executor then treats the cancellation as a miss and lets the
        job run to completion, which keeps the job ledger conserved
        (the job still retires exactly once).  Implementations with
        inspectable runqueues should override this together with
        :meth:`queued_processes`.
        """
        return None

    def queued_processes(self) -> list:
        """All ready processes currently sitting in runqueues, in a
        deterministic (core-id, queue-position) order.

        Implementations with internal queues should override this; the
        default reports nothing queued, matching a scheduler that hands
        every ready process straight to a core.
        """
        return []

    def load_map(self) -> dict:
        """Queue length per core id."""
        return {c.cid: self.queue_length(c.cid) for c in self.machine.cores}
