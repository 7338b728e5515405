"""Table 2: fairness comparison to the stock Linux assignment.

Eighteen technique variants, each reported as the percent decrease (over
the stock scheduler, positive = better) in max-flow, max-stretch, and
average process completion time.  The paper's best (Loop[45], δ=0.15 on
its IPC scale) showed 12.04 / 20.41 / 35.95; many basic-block variants
lost fairness — a shape this reproduction also exhibits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.fairness import FairnessComparison
from repro.experiments.config import TABLE2_VARIANTS, ExperimentConfig
from repro.experiments.runner import (
    TechniqueOutcome,
    make_workload,
    run_baseline,
    run_strategies,
)
from repro.experiments.report import format_table, pct


@dataclass
class Table2Row:
    technique: str
    comparison: FairnessComparison
    outcome: TechniqueOutcome


@dataclass
class Table2Result:
    baseline: TechniqueOutcome
    rows: list
    config: ExperimentConfig

    def best_average_time(self) -> Table2Row:
        return max(self.rows, key=lambda r: r.comparison.average_time_decrease)


def run(
    config: ExperimentConfig = None,
    variants=TABLE2_VARIANTS,
    jobs=None,
    log=None,
) -> Table2Result:
    config = config or ExperimentConfig.fairness_paper()
    workload = make_workload(config)
    baseline = run_baseline(config, workload)
    outcomes = run_strategies(config, workload, variants, jobs=jobs, log=log)
    rows = [
        Table2Row(name, outcome.fairness.versus(baseline.fairness), outcome)
        for name, outcome in zip(variants, outcomes)
    ]
    return Table2Result(baseline, rows, config)


def format_result(result: Table2Result) -> str:
    rows = [
        (
            row.technique,
            pct(row.comparison.max_flow_decrease),
            pct(row.comparison.max_stretch_decrease),
            pct(row.comparison.average_time_decrease),
            f"{row.outcome.switches:.0f}",
        )
        for row in result.rows
    ]
    return format_table(
        ("technique", "max-flow %", "max-stretch %", "avg time %", "switches"),
        rows,
        title=(
            "Table 2: % decrease over standard Linux assignment "
            f"(slots={result.config.slots}, interval={result.config.interval}s)"
        ),
    )


if __name__ == "__main__":
    print(format_result(run()))
