"""What a technique outcome carries across a process boundary.

A :class:`~repro.experiments.runner.TechniqueOutcome` holds per-process
records, never live processes with their traces and cursors, so a
sweep's results pickle to kilobytes.  The records must still give every
number the tables and figures read, identical to a live run's.
"""

import io
import pickle

import pytest

from repro.experiments.broker import LABEL_LIMIT, Broker
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import run_tasks
from repro.experiments.runner import make_workload, run_technique_point
from repro.metrics.fairness import fairness_report
from repro.metrics.throughput import throughput
from repro.sim.executor import SimulationResult
from repro.sim.flattrace import FlatCursor
from repro.sim.process import (
    ProcessRecord,
    SimProcess,
    Trace,
    TraceCursor,
    spawn_thread_group,
)
from repro.workloads.workload import WorkloadRun

CONFIG = ExperimentConfig.quick()
WORKLOAD = make_workload(CONFIG)
TASKS = [
    (CONFIG, "Loop[45]", WORKLOAD, None),
    (CONFIG, "BB[15,0]", WORKLOAD, 0.12),
]

_FORBIDDEN = (SimProcess, Trace, TraceCursor, FlatCursor)


class _NoProcessPickler(pickle.Pickler):
    """Fails on any object that belongs to a live simulation."""

    def reducer_override(self, obj):
        if isinstance(obj, _FORBIDDEN):
            raise AssertionError(f"{type(obj).__name__} crossed the boundary")
        return NotImplemented


def _ship(obj) -> bytes:
    buffer = io.BytesIO()
    _NoProcessPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buffer.getvalue()


@pytest.fixture(scope="module")
def outcome():
    return run_technique_point(TASKS[0])


def test_outcome_pickles_without_process_objects(outcome):
    payload = _ship(outcome)
    assert len(payload) < 32_000
    shipped = pickle.loads(payload)
    assert shipped.result == outcome.result
    assert shipped.fairness == outcome.fairness


def test_records_match_a_live_run(outcome):
    config, name, workload, _delta = TASKS[0]
    run = WorkloadRun(workload, config.resolved_machine(), config.strategy(name))
    live = run.run(
        config.interval,
        runtime=config.make_runtime(),
        contention_alpha=config.contention_alpha,
        pollution_beta=config.pollution_beta,
    )
    assert all(isinstance(p, SimProcess) for p in live.completed)
    assert all(isinstance(p, ProcessRecord) for p in outcome.result.completed)
    assert outcome.fairness == fairness_report(live.completed)
    assert outcome.instructions == throughput(live, config.interval)
    assert outcome.switches == live.total_switches()
    assert [
        (p.pid, p.name, p.completion, p.stats.switches)
        for p in outcome.result.completed
    ] == [(p.pid, p.name, p.completion, p.stats.switches) for p in live.completed]
    assert [p.pid for p in outcome.result.running] == [
        p.pid for p in live.running
    ]
    assert [(p.flow_time, p.stretch) for p in outcome.result.completed] == [
        (p.flow_time, p.stretch) for p in live.completed
    ]
    assert outcome.result.time == live.time
    assert outcome.result.throughput_buckets == live.throughput_buckets
    assert outcome.result.idle_time_by_core == live.idle_time_by_core


def test_summary_is_idempotent(outcome):
    assert outcome.result.summary() == outcome.result


def test_thread_group_records_share_tuner_state():
    threads = spawn_thread_group(10, "t", [Trace(()), Trace(())], frozenset({0}))
    result = SimulationResult(CONFIG.resolved_machine(), 0.0, running=threads)
    shipped = pickle.loads(_ship(result.summary()))
    first, second = shipped.running
    assert first.tuner_state is second.tuner_state


def _fields(outcome) -> tuple:
    return (
        outcome.name,
        outcome.result,
        outcome.fairness,
        outcome.instructions,
        outcome.switches,
        type(outcome.runtime),
        outcome.runtime.decisions,
        outcome.runtime.degradation_log,
    )


def test_shipped_outcomes_equal_serial_ones():
    serial = run_tasks(run_technique_point, TASKS, jobs=1)
    shipped = run_tasks(run_technique_point, TASKS, jobs=2)
    assert [_fields(o) for o in shipped] == [_fields(o) for o in serial]


def _length(task) -> int:
    return len(task[0])


HUGE_TASKS = [("x" * 100_000, i) for i in range(3)]


def test_default_labels_are_bounded_in_log_lines():
    lines = []
    results = run_tasks(_length, HUGE_TASKS, jobs=1, log=lines.append)
    assert results == [100_000] * 3
    assert len(lines) == 3
    assert all(len(line) <= LABEL_LIMIT + 20 for line in lines)


def test_default_labels_are_bounded_in_broker_rows(tmp_path):
    lines = []
    results = run_tasks(
        _length, HUGE_TASKS, jobs=2, log=lines.append, broker_dir=str(tmp_path)
    )
    assert results == [100_000] * 3
    progress = [line for line in lines if line.startswith("[")]
    assert len(progress) == 3
    assert all(len(line) <= LABEL_LIMIT + 20 for line in progress)
    broker = Broker(tmp_path)
    assert len(broker.sweeps()) == 1
    labels = [
        row[0]
        for table in ("results", "tasks")
        for row in broker._conn().execute(f"SELECT label FROM {table}")
    ]
    broker.close()
    assert len(labels) == 6
    assert all(len(label) <= LABEL_LIMIT for label in labels)
    # The shortened labels still tell the tasks apart.
    assert len(set(labels)) == 3
