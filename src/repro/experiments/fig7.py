"""Figure 7: throughput under injected clustering error.

"To introduce this error, after determining the clustering of blocks, a
percentage of blocks were randomly selected and placed into the opposite
cluster ... With a 10% error we see almost no loss in performance and
with 20% error we still see a significant performance increase.  At 30%
error we see little performance improvement."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.block_typing import StaticBlockTyper, inject_clustering_error
from repro.metrics.throughput import throughput_improvement
from repro.workloads.spec import spec_benchmark
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import run_tasks
from repro.experiments.runner import make_workload, run_baseline, run_technique
from repro.experiments.report import format_series

DEFAULT_ERRORS = (0.0, 0.1, 0.2, 0.3)

#: Figure 7's fixed technique (same as Figure 6).
FIG7_STRATEGY = "BB[15,0]"


@dataclass
class Fig7Result:
    errors: tuple
    improvements: list
    strategy: str
    config: ExperimentConfig


def _point(task):
    """Harness worker: one error rate, overrides built in the worker."""
    config, workload, strategy, error, error_seed = task
    typer = StaticBlockTyper(num_types=2)
    overrides = {}
    for name in sorted(workload.benchmark_names()):
        typing = typer.type_blocks(spec_benchmark(name).program)
        overrides[name] = inject_clustering_error(typing, error, seed=error_seed)
    return run_technique(
        config,
        strategy,
        workload=workload,
        typing_overrides=overrides,
    )


def run(
    config: ExperimentConfig = None,
    errors=DEFAULT_ERRORS,
    strategy: str = FIG7_STRATEGY,
    error_seed: int = 7,
    jobs=None,
    log=None,
) -> Fig7Result:
    config = config or ExperimentConfig.paper()
    workload = make_workload(config)
    baseline = run_baseline(config, workload)
    tuned_runs = run_tasks(
        _point,
        [(config, workload, strategy, error, error_seed) for error in errors],
        jobs=jobs,
        log=log,
        labels=[f"error={error:.0%}" for error in errors],
    )
    improvements = [
        throughput_improvement(baseline.result, tuned.result, config.interval)
        for tuned in tuned_runs
    ]
    return Fig7Result(tuple(errors), improvements, strategy, config)


def format_result(result: Fig7Result) -> str:
    return format_series(
        [f"{e:.0%}" for e in result.errors],
        result.improvements,
        "clustering error",
        "throughput improvement %",
        title=(
            f"Figure 7: throughput vs clustering error "
            f"({result.strategy}, slots={result.config.slots})"
        ),
    )


if __name__ == "__main__":
    print(format_result(run()))
