"""Shared run machinery for the experiments.

All experiments compare runs over *identical workload queues* — the
paper's methodology ("when comparing two techniques, the same queues
were used for each experiment").  :func:`run_baseline` executes the
stock-scheduler run, :func:`run_technique` a tuned run, and both return
a :class:`TechniqueOutcome` carrying the simulation result plus the
derived metrics the tables/figures consume.  :func:`run_strategies`
runs a strategy sweep once per distinct instrumentation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.metrics.fairness import FairnessReport, fairness_report
from repro.metrics.throughput import throughput
from repro.sim.executor import SimulationResult
from repro.workloads.workload import Workload, WorkloadRun
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import run_tasks


@dataclass
class TechniqueOutcome:
    """One run's results.

    Attributes:
        name: technique name, or ``"linux"`` for the stock baseline.
        result: the simulation result's summary
            (:meth:`~repro.sim.executor.SimulationResult.summary`):
            per-process records, not live processes, so an outcome
            pickles to a few kilobytes.  Run
            :class:`~repro.workloads.workload.WorkloadRun` directly for
            the live processes.
        fairness: Table 2's metrics over completed processes.
        instructions: committed instructions within the interval.
        switches: total core switches across all processes.
    """

    name: str
    result: SimulationResult
    fairness: FairnessReport
    instructions: float
    switches: float

    @property
    def completed(self) -> int:
        return self.fairness.completed


def _outcome(name: str, result: SimulationResult, interval: float) -> TechniqueOutcome:
    result = result.summary()
    return TechniqueOutcome(
        name,
        result,
        fairness_report(result.completed),
        throughput(result, interval),
        result.total_switches(),
    )


def make_workload(config: ExperimentConfig) -> Workload:
    """The experiment's workload (same seed -> same queues)."""
    return Workload.random(config.slots, seed=config.seed)


def run_baseline(
    config: ExperimentConfig,
    workload: Optional[Workload] = None,
    faults=None,
) -> TechniqueOutcome:
    """Run the stock-Linux-scheduler baseline.

    Args:
        faults: optional :class:`~repro.sim.faults.FaultPlan` perturbing
            the run (fault-resilience experiments); ``None`` (default)
            runs fault-free.
    """
    workload = workload or make_workload(config)
    run = WorkloadRun(workload, config.resolved_machine())
    result = run.run(
        config.interval,
        contention_alpha=config.contention_alpha,
        pollution_beta=config.pollution_beta,
        faults=faults,
    )
    return _outcome("linux", result, config.interval)


def run_technique(
    config: ExperimentConfig,
    strategy_name: str,
    workload: Optional[Workload] = None,
    delta: Optional[float] = None,
    typing_overrides: Optional[dict] = None,
    runtime=None,
    faults=None,
) -> TechniqueOutcome:
    """Run one phase-based-tuning variant.

    Args:
        strategy_name: e.g. ``"Loop[45]"``.
        delta: override the config's IPC threshold.
        typing_overrides: per-benchmark typings (error injection).
        runtime: override the runtime entirely (e.g. switch-to-all).
        faults: optional :class:`~repro.sim.faults.FaultPlan` perturbing
            the run; ``None`` (default) runs fault-free.
    """
    workload = workload or make_workload(config)
    run = WorkloadRun(
        workload,
        config.resolved_machine(),
        config.strategy(strategy_name),
        typing_overrides=typing_overrides,
    )
    result = run.run(
        config.interval,
        runtime=runtime if runtime is not None else config.make_runtime(delta),
        contention_alpha=config.contention_alpha,
        pollution_beta=config.pollution_beta,
        faults=faults,
    )
    return _outcome(strategy_name, result, config.interval)


def run_technique_point(task: tuple) -> TechniqueOutcome:
    """Harness worker: one technique run from a picklable task tuple.

    ``task`` is ``(config, strategy_name, workload, delta)`` with an
    optional trailing ``faults`` plan; module level so
    :func:`repro.experiments.harness.run_tasks` can ship it to
    workers.
    """
    config, strategy_name, workload, delta, *rest = task
    faults = rest[0] if rest else None
    return run_technique(
        config,
        strategy_name,
        workload=workload,
        delta=delta,
        faults=faults,
    )


def run_strategies(
    config: ExperimentConfig,
    workload: Workload,
    names,
    point: Callable = run_technique_point,
    task: Optional[Callable] = None,
    jobs=None,
    log=None,
) -> list:
    """One outcome per strategy name, simulating each distinct
    instrumentation once.

    Names whose prepared ``(trace, isolated_seconds)`` agree on every
    benchmark of *workload* (by :meth:`Trace.content_digest
    <repro.sim.process.Trace.content_digest>`) feed the simulation
    identical inputs, so only the first name of each such group runs
    through :func:`run_tasks`; the others get its outcome renamed.  No
    result outlives the call.

    Args:
        point: the harness point function.
        task: ``name -> task tuple`` for *point*; by default
            ``(config, name, workload, None)``, the shape
            :func:`run_technique_point` takes.
    """
    if task is None:
        task = lambda name: (config, name, workload, None)  # noqa: E731
    machine = config.resolved_machine()
    groups: dict = {}
    for name in names:
        run = WorkloadRun(workload, machine, config.strategy(name))
        groups.setdefault(run.instrumentation(), []).append(name)
    leaders = [group[0] for group in groups.values()]
    outcomes = run_tasks(
        point,
        [task(name) for name in leaders],
        jobs=jobs,
        log=log,
        labels=leaders,
    )
    by_name = {}
    for group, outcome in zip(groups.values(), outcomes):
        by_name[group[0]] = outcome
        for name in group[1:]:
            by_name[name] = replace(outcome, name=name)
    return [by_name[name] for name in names]
