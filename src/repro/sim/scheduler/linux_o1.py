"""A Linux-2.6 O(1)-scheduler-like baseline.

Captures what matters for the paper's comparison:

* one runqueue per core, round-robin within it at a fixed timeslice
  (a single priority level models the paper's CPU-bound batch jobs,
  which all run at the default nice level);
* wake-up placement on the least-loaded core the affinity mask allows,
  with a cheap stickiness preference for the previous core;
* work stealing when a core idles and periodic pull balancing, both
  affinity-respecting;
* complete frequency blindness — a 1.6 GHz core is as good a home as a
  2.4 GHz one, which is the pathology phase-based tuning corrects.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.errors import SchedulingError
from repro.sim.machine import MachineConfig
from repro.sim.process import SimProcess
from repro.sim.scheduler.affinity import pick_core, validate_affinity
from repro.sim.scheduler.base import Scheduler


class LinuxO1Scheduler(Scheduler):
    """Per-core runqueues with stealing and periodic balancing.

    Args:
        timeslice: quantum length in seconds (the O(1) scheduler's
            default timeslice was 100 ms; we default to 50 ms so tuning
            decisions surface faster in short simulations).
        balance_interval: minimum seconds between periodic balance
            passes.
    """

    def __init__(self, timeslice: float = 0.05, balance_interval: float = 0.2):
        if timeslice <= 0:
            raise SchedulingError(f"timeslice must be positive, got {timeslice}")
        self.timeslice = timeslice
        self.balance_interval = balance_interval
        self._queues: dict[int, deque] = {}
        self._offline: set = set()
        self._last_balance = 0.0
        self.placements = 0
        self.steals = 0
        self.balance_moves = 0
        self.affinity_breaks = 0

    def attach(self, machine: MachineConfig, waker) -> None:
        super().attach(machine, waker)
        self._queues = {c.cid: deque() for c in machine.cores}
        self._offline = set()

    # -- hotplug ----------------------------------------------------------------

    def set_core_offline(self, core_id: int, offline: bool, now: float) -> None:
        """Stop (or resume) placing work on *core_id*; migrate its queue."""
        if offline:
            self._offline.add(core_id)
            stranded = list(self._queues[core_id])
            self._queues[core_id].clear()
            for proc in stranded:
                self.enqueue(proc, now)
        else:
            self._offline.discard(core_id)

    def _usable_mask(self, mask: frozenset) -> frozenset:
        """Restrict *mask* to online cores, breaking the affinity
        kernel-style (any online core) when every allowed core is down."""
        if not self._offline:
            return mask
        usable = mask - self._offline
        if usable:
            return usable
        usable = frozenset(self._queues) - self._offline
        if not usable:
            raise SchedulingError("every core is offline")
        self.affinity_breaks += 1
        return usable

    # -- queue operations ----------------------------------------------------

    def enqueue(self, proc: SimProcess, now: float) -> None:
        mask = validate_affinity(proc.affinity, len(self.machine))
        mask = self._usable_mask(mask)
        target = pick_core(mask, self.load_map(), prefer=proc.current_core)
        self._queues[target].append(proc)
        self.placements += 1
        tr = self.telemetry
        if tr is not None:
            # Per-wakeup hook point: append the raw event tuple (see
            # repro.telemetry.events for the layout) to keep dispatch
            # cost off the scheduling fast path.
            tr.events.append(
                ("I", "sched", "place", tr.run, now, target, None,
                 {"pid": proc.pid, "target": target})
            )
        self.waker(target, now)

    def requeue(self, proc: SimProcess, core_id: int, now: float) -> None:
        # proc.affinity is validated at admission and at every change,
        # so the hot requeue path only needs the membership checks.
        if core_id in proc.affinity and core_id not in self._offline:
            self._queues[core_id].append(proc)
            self.waker(core_id, now)
        else:
            self.enqueue(proc, now)

    def pick(self, core_id: int, now: float) -> Optional[SimProcess]:
        if core_id in self._offline:
            return None
        # _maybe_balance's early-exit guard, inlined: pick runs once per
        # quantum and balancing is due only every balance_interval.
        if now - self._last_balance >= self.balance_interval:
            self._maybe_balance(now)
        queue = self._queues[core_id]
        if queue:
            return queue.popleft()
        return self._steal(core_id, now)

    def queue_length(self, core_id: int) -> int:
        return len(self._queues[core_id])

    def remove(self, pid: int, now: float) -> Optional[SimProcess]:
        """Surgically pull a queued process out by pid (open-system
        cancellation), scanning queues in machine order like
        :meth:`queued_processes` enumerates them."""
        for cid, queue in self._queues.items():
            for i, proc in enumerate(queue):
                if proc.pid == pid:
                    del queue[i]
                    tr = self.telemetry
                    if tr is not None:
                        tr.events.append(
                            ("I", "sched", "remove", tr.run, now, cid,
                             None, {"pid": pid, "from": cid})
                        )
                    return proc
        return None

    def queued_processes(self) -> list:
        procs = []
        for queue in self._queues.values():
            procs.extend(queue)
        return procs

    def load_map(self) -> dict:
        return {cid: len(queue) for cid, queue in self._queues.items()}

    # -- balancing -------------------------------------------------------------

    def _steal(self, thief: int, now: float = 0.0) -> Optional[SimProcess]:
        """Pull one allowed process from the busiest other core."""
        queues = self._queues
        # Busiest first, ties in machine order.  Empty queues have
        # nothing to steal, so they are never sorted.
        donors = sorted(
            [
                (-len(queue), cid)
                for cid, queue in queues.items()
                if queue and cid != thief
            ]
        )
        for _, donor in donors:
            queue = queues[donor]
            # Scan from the cold end so the donor keeps its hot task.
            for i in range(len(queue) - 1, -1, -1):
                proc = queue[i]
                if thief in proc.affinity:
                    del queue[i]
                    self.steals += 1
                    tr = self.telemetry
                    if tr is not None:
                        tr.events.append(
                            ("I", "sched", "steal", tr.run, now, thief,
                             None, {"pid": proc.pid, "from": donor})
                        )
                    return proc
        return None

    def _maybe_balance(self, now: float) -> None:
        """Periodic pull balancing: even out queue lengths."""
        if now - self._last_balance < self.balance_interval:
            return
        self._last_balance = now
        if not self._offline:
            # Cheap no-move exit: a move needs a length spread of at
            # least 2, and this max/min over the deques is the same
            # busiest-minus-idlest the loop below would compute (its
            # tie-break keys only pick WHICH extreme core, not the
            # extreme length), without building the load_map dict.
            hi = -1
            lo = 1 << 30
            for queue in self._queues.values():
                length = len(queue)
                if length > hi:
                    hi = length
                if length < lo:
                    lo = length
            if hi - lo < 2:
                return
        moved = True
        while moved:
            moved = False
            load = self.load_map()
            if self._offline:
                load = {
                    cid: length
                    for cid, length in load.items()
                    if cid not in self._offline
                }
                if len(load) < 2:
                    return
            busiest = max(load, key=lambda cid: (load[cid], -cid))
            idlest = min(load, key=lambda cid: (load[cid], cid))
            if load[busiest] - load[idlest] < 2:
                return
            queue = self._queues[busiest]
            for i in range(len(queue) - 1, -1, -1):
                proc = queue[i]
                if idlest in proc.affinity:
                    del queue[i]
                    self._queues[idlest].append(proc)
                    self.balance_moves += 1
                    tr = self.telemetry
                    if tr is not None:
                        tr.events.append(
                            ("I", "sched", "balance", tr.run, now, idlest,
                             None, {"pid": proc.pid, "from": busiest})
                        )
                    self.waker(idlest, now)
                    moved = True
                    break
