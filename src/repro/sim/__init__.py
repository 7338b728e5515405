"""Performance-asymmetric multicore (AMP) simulator.

The paper evaluates on real hardware: an Intel Core 2 Quad with two cores
at 2.4 GHz and two underclocked to 1.6 GHz, paired shared L2 caches, an
unmodified Linux 2.6.22 kernel with the O(1) scheduler, PAPI counters and
the process-affinity API.  This package simulates that whole substrate:

* :mod:`core` / :mod:`machine` — core types (frequency, caches) and
  machine configurations, including the paper's 4-core AMP and the
  3-core (2 fast, 1 slow) setup from Section VII;
* :mod:`cache` — a real set-associative LRU cache simulator, used to
  calibrate and validate the analytic model;
* :mod:`memory` — the analytic miss model: working sets vs capacities,
  with DRAM latency fixed in nanoseconds so stall *cycles* scale with
  clock frequency — the physical source of the IPC asymmetry the paper
  exploits;
* :mod:`cost_model` — per-block cycles and IPC per core type;
* :mod:`counters` — PAPI-like bounded hardware counter slots;
* :mod:`process` / :mod:`tracegen` — simulated processes executing
  compact hierarchical traces generated from (instrumented) programs
  plus a behaviour specification;
* :mod:`scheduler` — the Linux-O(1)-like baseline scheduler and the
  affinity API;
* :mod:`executor` — the discrete-event machine that runs workloads;
* :mod:`opensys` — the open-system engine layering dynamic arrivals,
  cancellations, and breakdown windows over the executor's event heap.
"""

from repro.sim.core import Core, CoreType
from repro.sim.machine import (
    MachineConfig,
    core2quad_amp,
    many_core_amp,
    three_core_amp,
    symmetric_machine,
)
from repro.sim.cache import SetAssociativeCache, CacheStats
from repro.sim.memory import MemoryModel, MissProfile
from repro.sim.cost_model import BlockCost, CostModel, CostVector
from repro.sim.counters import CounterBank, CounterSession
from repro.sim.process import (
    EmbeddedMark,
    ProcessRecord,
    Repeat,
    Segment,
    SimProcess,
    Trace,
    spawn_thread_group,
)
from repro.sim.tracegen import BehaviorSpec, TraceGenerator
from repro.sim.executor import Simulation, SimulationResult
from repro.sim.scheduler import LinuxO1Scheduler, Scheduler
from repro.sim.opensys import (
    LoadController,
    LoadPoint,
    LoadSweep,
    OpenSystemPlan,
    OpenSystemResult,
    OpenSystemRun,
    service_capacity,
)

__all__ = [
    "Core",
    "CoreType",
    "MachineConfig",
    "core2quad_amp",
    "many_core_amp",
    "three_core_amp",
    "symmetric_machine",
    "SetAssociativeCache",
    "CacheStats",
    "MemoryModel",
    "MissProfile",
    "BlockCost",
    "CostModel",
    "CostVector",
    "CounterBank",
    "CounterSession",
    "Segment",
    "Repeat",
    "Trace",
    "SimProcess",
    "ProcessRecord",
    "EmbeddedMark",
    "spawn_thread_group",
    "BehaviorSpec",
    "TraceGenerator",
    "Simulation",
    "SimulationResult",
    "LinuxO1Scheduler",
    "Scheduler",
    "LoadController",
    "LoadPoint",
    "LoadSweep",
    "OpenSystemPlan",
    "OpenSystemResult",
    "OpenSystemRun",
    "service_capacity",
]
