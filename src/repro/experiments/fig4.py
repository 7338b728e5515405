"""Figure 4: time overhead of phase marks (switch-to-"all cores").

"To measure the time overhead of phase marks and core switches instead
of switching to a specific core, we switch to 'all cores' ... the
difference in runtime between the unmodified binary and this
instrumented binary shows the cost of running our phase marks at the
predetermined program points.  Figure 4 shows results for workloads of
size 84."  The paper's best case was as little as 0.14% overhead, with
the loop technique lowest.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.overhead import time_overhead
from repro.tuning.runtime import SwitchToAllRuntime
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    make_workload,
    run_baseline,
    run_strategies,
    run_technique,
)
from repro.experiments.report import format_table

#: The variants Figure 4 plots (a representative subset per class).
FIG4_VARIANTS = (
    "BB[10,0]", "BB[15,0]", "BB[15,2]", "BB[20,3]",
    "Int[30]", "Int[45]", "Int[60]",
    "Loop[30]", "Loop[45]", "Loop[60]",
)


@dataclass
class Fig4Result:
    """Fractional time overhead per variant."""

    overheads: dict  # variant -> fraction
    config: ExperimentConfig


def _point(task):
    """Harness worker: one switch-to-all-cores marked run."""
    config, workload, name = task
    return run_technique(
        config,
        name,
        workload=workload,
        runtime=SwitchToAllRuntime(config.resolved_machine()),
    )


def run(
    config: ExperimentConfig = None,
    variants=FIG4_VARIANTS,
    jobs=None,
    log=None,
) -> Fig4Result:
    """Measure mark-execution overhead for each variant.

    The paper used workloads of size 84; pass
    ``ExperimentConfig(slots=84)`` to match at full scale.
    """
    config = config or ExperimentConfig(slots=84, interval=400.0)
    workload = make_workload(config)
    baseline = run_baseline(config, workload)
    marked_runs = run_strategies(
        config,
        workload,
        variants,
        point=_point,
        task=lambda name: (config, workload, name),
        jobs=jobs,
        log=log,
    )
    overheads = {
        name: time_overhead(baseline.result, marked.result, config.interval)
        for name, marked in zip(variants, marked_runs)
    }
    return Fig4Result(overheads, config)


def format_result(result: Fig4Result) -> str:
    rows = [
        (name, f"{overhead:.3%}")
        for name, overhead in result.overheads.items()
    ]
    return format_table(
        ("technique", "time overhead"),
        rows,
        title=(
            f"Figure 4: time overhead, workload size "
            f"{result.config.slots} (switch-to-all-cores marks)"
        ),
    )


if __name__ == "__main__":
    print(format_result(run()))
