"""Open-system experiment: latency under offered load, stock vs tuned.

The paper's closed-system experiments fix the number of simultaneous
jobs and measure throughput/fairness over an interval.  This experiment
asks the question a service operator would: at a given *offered load*
(arrival rate as a fraction of the machine's measured service
capacity), what latency does each scheduling technique deliver?  Jobs
arrive under a seeded Poisson process, a fraction are cancelled
mid-flight, and both techniques see the *identical* arrival,
class-mix, and cancellation schedules at every load point — the
open-system analogue of the paper's "same queues for each experiment"
methodology.

Reported per load point and technique: p50/p95/p99 sojourn time, p95
wait time, time-weighted mean queue depth, throughput, and whether the
point saturated (queue growing without bound; see
:attr:`~repro.sim.opensys.OpenSystemResult.saturated`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.sim.opensys import (
    OpenSystemPlan,
    OpenSystemResult,
    OpenSystemRun,
    service_capacity,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import run_tasks
from repro.experiments.report import format_table

#: Offered-load grid: arrival rate as a fraction of measured capacity.
DEFAULT_LOAD_FRACTIONS = (0.2, 0.4, 0.6, 0.8, 1.0)

#: The job mix drawn from on each arrival (uniform over this tuple).
DEFAULT_CLASSES = ("164.gzip", "179.art", "183.equake", "429.mcf")

#: Fraction of arrivals later cancelled (exercises the departure path
#: under load; both techniques see identical cancellations).
DEFAULT_CANCEL_FRACTION = 0.05

#: The technique compared against stock (the paper's default strategy).
OPEN_SYSTEM_STRATEGY = "BB[15,0]"


@dataclass
class OpenSystemExperimentResult:
    fractions: tuple
    capacity: float
    stock: list  # OpenSystemResult per fraction
    tuned: list  # OpenSystemResult per fraction
    strategy: str
    config: ExperimentConfig


def base_plan(config: ExperimentConfig, classes=DEFAULT_CLASSES) -> OpenSystemPlan:
    """The load-point plan template: rate is filled in per point, and
    every stochastic schedule keys off the experiment seed."""
    return OpenSystemPlan(
        seed=config.seed,
        rate=0.0,
        horizon=config.interval,
        classes=tuple(classes),
        cancel_fraction=DEFAULT_CANCEL_FRACTION,
    )


def run_open_system_point(task: tuple) -> OpenSystemResult:
    """Harness worker: one (technique, load point) run from a picklable
    task tuple ``(config, strategy_name_or_None, plan)``; module level
    so :func:`repro.experiments.harness.run_tasks` can ship it to
    workers."""
    config, strategy_name, plan = task
    machine = config.resolved_machine()
    if strategy_name is None:
        run = OpenSystemRun(plan, machine)
        result = run.run(
            contention_alpha=config.contention_alpha,
            pollution_beta=config.pollution_beta,
        )
    else:
        run = OpenSystemRun(plan, machine, config.strategy(strategy_name))
        result = run.run(
            runtime=config.make_runtime(),
            contention_alpha=config.contention_alpha,
            pollution_beta=config.pollution_beta,
        )
    # The raw simulation result carries whole process objects (traces,
    # cursors); strip it before the outcome crosses a process boundary.
    result.sim_result = None
    return result


def run(
    config: ExperimentConfig = None,
    fractions=DEFAULT_LOAD_FRACTIONS,
    strategy: str = OPEN_SYSTEM_STRATEGY,
    classes=DEFAULT_CLASSES,
    jobs=None,
    log=None,
) -> OpenSystemExperimentResult:
    config = config or ExperimentConfig.paper()
    machine = config.resolved_machine()
    plan0 = base_plan(config, classes)
    # Measure capacity once, from the stock pipeline's isolated service
    # times (also primes the pipeline cache for the point runs).
    probe = OpenSystemRun(replace(plan0, rate=1.0), machine)
    capacity = service_capacity(machine, probe.mean_isolated_seconds())
    tasks = []
    labels = []
    for name in (None, strategy):
        for fraction in fractions:
            tasks.append(
                (config, name, replace(plan0, rate=fraction * capacity))
            )
            labels.append(f"{name or 'linux'}@{fraction:g}")
    results = run_tasks(
        run_open_system_point, tasks, jobs=jobs, log=log, labels=labels
    )
    n = len(fractions)
    return OpenSystemExperimentResult(
        tuple(fractions),
        capacity,
        list(results[:n]),
        list(results[n:]),
        strategy,
        config,
    )


def _rows(fractions, results):
    rows = []
    for fraction, res in zip(fractions, results):
        rows.append(
            (
                f"{fraction:g}",
                f"{res.sojourn.quantile(0.5):.2f}",
                f"{res.sojourn.quantile(0.95):.2f}",
                f"{res.sojourn.quantile(0.99):.2f}",
                f"{res.wait.quantile(0.95):.2f}",
                f"{res.depth.mean(0.0, res.horizon):.2f}",
                f"{res.throughput:.3f}",
                "yes" if res.saturated else "no",
            )
        )
    return rows


_HEADERS = (
    "load",
    "p50 sojourn",
    "p95 sojourn",
    "p99 sojourn",
    "p95 wait",
    "mean depth",
    "jobs/s",
    "saturated",
)


def format_result(result: OpenSystemExperimentResult) -> str:
    title = (
        f"Open system: latency vs offered load "
        f"(capacity {result.capacity:.3f} jobs/s, "
        f"horizon {result.config.interval:g} s)"
    )
    parts = [
        format_table(
            _HEADERS, _rows(result.fractions, result.stock),
            title=f"{title}\n[linux]",
        ),
        format_table(
            _HEADERS, _rows(result.fractions, result.tuned),
            title=f"[{result.strategy}]",
        ),
    ]
    return "\n\n".join(parts)


if __name__ == "__main__":
    print(format_result(run()))
