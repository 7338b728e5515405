"""Recorded-result pins for the executor's event loop.

The batched and stepped quantum paths run inside one ``Simulation.run``
loop, so comparing them with each other cannot catch a change in the
order that loop delivers events.  These tests hold whole
:class:`~repro.sim.executor.SimulationResult` digests, on both paths,
to literals recorded before the batched quantum loop was folded into
``run``: closed stock and tuned workloads, an open system with
arrivals, cancellations and breakdown windows, and a tuned run under
DVFS, L2 memory-pressure and affinity-call-failure faults.
"""

import hashlib
import json

import pytest

from repro.experiments.config import ExperimentConfig
from repro.sim import core2quad_amp
from repro.sim.executor import NO_BATCH_ENV
from repro.sim.faults import DvfsEvent, FaultPlan, HotplugEvent, MemoryPressureEvent
from repro.sim.opensys import OpenSystemPlan, OpenSystemRun
from repro.workloads.workload import Workload, WorkloadRun

_MACHINE = core2quad_amp()
_CONFIG = ExperimentConfig(machine=_MACHINE)
_WORKLOAD = Workload.random(6, seed=3, queue_length=64)
_INTERVAL = 40.0


def _process_material(p) -> list:
    s = p.stats
    return [
        p.pid,
        p.name,
        p.completion,
        s.instructions,
        sorted(s.cycles_by_type.items()),
        sorted(s.instrs_by_type.items()),
        s.switches,
        s.migrations,
        s.mark_firings,
        s.mark_overhead_cycles,
        s.cpu_time,
    ]


def _result_digest(result, *extra) -> str:
    """sha256 over everything *result* reports (json writes floats with
    repr, so equal digests mean bit-equal results)."""
    material = {
        "time": result.time,
        "completed": [_process_material(p) for p in result.completed],
        "running": [_process_material(p) for p in result.running],
        "cancelled": [_process_material(p) for p in result.cancelled],
        "buckets": sorted(result.throughput_buckets.items()),
        "idle": sorted(result.idle_time_by_core.items()),
        "extra": list(extra),
    }
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _runtime():
    return _CONFIG.make_runtime()


def _closed_stock() -> str:
    run = WorkloadRun(_WORKLOAD, _MACHINE)
    return _result_digest(run.run(_INTERVAL))


def _closed_loop() -> str:
    run = WorkloadRun(_WORKLOAD, _MACHINE, _CONFIG.strategy("Loop[45]"))
    return _result_digest(run.run(_INTERVAL, runtime=_runtime()))


def _open_churn() -> str:
    plan = OpenSystemPlan(
        seed=4,
        rate=1.2,
        horizon=60.0,
        classes=("164.gzip", "183.equake", "429.mcf"),
        cancel_fraction=0.2,
        breakdowns=3,
    )
    strategy = _CONFIG.strategy("BB[15,0]")
    result = OpenSystemRun(plan, _MACHINE, strategy).run(runtime=_runtime())
    return _result_digest(
        result.sim_result,
        result.arrived,
        result.completed,
        result.cancelled,
        result.cancel_misses,
    )


def _closed_faulted() -> str:
    plan = FaultPlan(
        seed=11,
        affinity_fail_rate=0.1,
        hotplug=(
            HotplugEvent(time=12.0, core_id=3, online=False),
            HotplugEvent(time=20.0, core_id=3, online=True),
        ),
        dvfs=(
            DvfsEvent(time=5.0, core_id=0, scale=0.75),
            DvfsEvent(time=30.0, core_id=0, scale=1.0),
        ),
        mem_pressure=(
            MemoryPressureEvent(time=8.0, core_id=1, shrink=0.5),
            MemoryPressureEvent(time=15.0, core_id=2, shrink=0.3),
            MemoryPressureEvent(time=25.0, core_id=1, shrink=0.0),
        ),
    )
    run = WorkloadRun(_WORKLOAD, _MACHINE, _CONFIG.strategy("Loop[45]"))
    return _result_digest(run.run(_INTERVAL, runtime=_runtime(), faults=plan))


#: Digests recorded on the executor with the split batched fast path,
#: before the fold; both paths must still reproduce them exactly.
PINS = {
    "closed-stock": "302e017d0a15d7e72691e5bfb76487be2b2931b6ee63e8f01b26efd52b60a0c8",
    "closed-loop": "893b97ded2602111ab77169c4fa92921178aa1da734212954fe750c8bb2b4e0f",
    "open-churn": "c46b9c116bce9c534c152adfe36631d5378720e2ce8ee8bbdb868b27c770bd7f",
    "closed-faulted": "9e70e4273bf045471c5befc8b8aa59bb7d87d232b5959dbefff11db59aae602f",
}

_CASES = {
    "closed-stock": _closed_stock,
    "closed-loop": _closed_loop,
    "open-churn": _open_churn,
    "closed-faulted": _closed_faulted,
}


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "stepped"])
@pytest.mark.parametrize("case", sorted(_CASES))
def test_event_loop_reproduces_recorded_results(case, batched, monkeypatch):
    if batched:
        monkeypatch.delenv(NO_BATCH_ENV, raising=False)
    else:
        monkeypatch.setenv(NO_BATCH_ENV, "1")
    assert _CASES[case]() == PINS[case]

