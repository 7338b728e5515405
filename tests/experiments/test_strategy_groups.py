"""A strategy sweep simulates each distinct instrumentation once.

``runner.run_strategies`` groups strategy names whose prepared traces
agree on every benchmark and runs one simulation per group.  Every
merged row must be exactly what a direct run of its own name gives.
"""

import re

from repro.analysis.block_typing import StaticBlockTyper, inject_clustering_error
from repro.experiments import ExperimentConfig, extras, fig4, runner, table2
from repro.metrics.overhead import time_overhead
from repro.workloads.spec import spec_benchmark
from repro.workloads.workload import WorkloadRun

QUICK = ExperimentConfig.quick()


class _Progress:
    """``log`` callback counting ``[k/n]`` progress lines, one per
    simulated task."""

    def __init__(self):
        self.labels = []

    def __call__(self, line):
        match = re.match(r"\[\d+/\d+\] (.*)", line)
        if match:
            self.labels.append(match.group(1))


def _assert_same_run(merged, direct, name):
    assert merged.name == name
    assert merged.result == direct.result
    assert merged.fairness == direct.fairness
    assert merged.switches == direct.switches
    assert merged.instructions == direct.instructions


def test_table2_merged_rows_equal_direct_runs():
    variants = ("BB[10,2]", "BB[10,3]", "Loop[30]", "Loop[45]", "BB[15,0]")
    progress = _Progress()
    result = table2.run(QUICK, variants=variants, jobs=1, log=progress)
    assert sorted(progress.labels) == ["BB[10,2]", "BB[15,0]", "Loop[30]"]
    assert [row.technique for row in result.rows] == list(variants)
    workload = runner.make_workload(QUICK)
    for row in result.rows:
        direct = runner.run_technique(QUICK, row.technique, workload=workload)
        _assert_same_run(row.outcome, direct, row.technique)
        assert row.comparison == direct.fairness.versus(result.baseline.fairness)


def test_fig4_merges_loop30_and_loop45():
    config = ExperimentConfig(slots=6, interval=40.0, seed=101)
    variants = ("Loop[30]", "Loop[45]", "BB[15,0]")
    progress = _Progress()
    result = fig4.run(config, variants=variants, jobs=1, log=progress)
    assert sorted(progress.labels) == ["BB[15,0]", "Loop[30]"]
    assert list(result.overheads) == list(variants)
    workload = runner.make_workload(config)
    baseline = runner.run_baseline(config, workload)
    for name in variants:
        direct = fig4._point((config, workload, name))
        assert result.overheads[name] == time_overhead(
            baseline.result, direct.result, config.interval
        )


def test_lookahead_sweep_merges_depths_2_and_3():
    config = ExperimentConfig(slots=6, interval=40.0, seed=101)
    progress = _Progress()
    sweep = extras.lookahead_sweep(config, depths=(1, 2, 3), log=progress)
    assert sorted(progress.labels) == ["BB[15,1]", "BB[15,2]"]
    assert sweep.throughput[1] == sweep.throughput[2]
    assert sweep.max_stretch_decrease[1] == sweep.max_stretch_decrease[2]
    workload = runner.make_workload(config)
    merged = runner.run_strategies(
        config, workload, ["BB[15,2]", "BB[15,3]"], jobs=1
    )
    for outcome, name in zip(merged, ("BB[15,2]", "BB[15,3]")):
        direct = runner.run_technique(config, name, workload=workload)
        _assert_same_run(outcome, direct, name)


def test_traces_differing_in_one_benchmark_are_never_merged(monkeypatch):
    """BB[10,2] and BB[10,3] mark every benchmark identically; give
    BB[10,3] a different typing of one benchmark and they must run
    apart."""
    config = ExperimentConfig(slots=6, interval=40.0, seed=101)
    workload = runner.make_workload(config)
    machine = config.resolved_machine()
    altered = sorted(workload.benchmark_names())[0]
    typing = StaticBlockTyper().type_blocks(spec_benchmark(altered).program)
    overrides = {altered: inject_clustering_error(typing, 1.0)}

    def typed_run(workload, machine, strategy, typing_overrides=None):
        if strategy.name == "BB[10,3]":
            typing_overrides = overrides
        return WorkloadRun(workload, machine, strategy, typing_overrides)

    plain = [
        WorkloadRun(workload, machine, config.strategy(name)).instrumentation()
        for name in ("BB[10,2]", "BB[10,3]")
    ]
    assert plain[0] == plain[1]
    typed = typed_run(workload, machine, config.strategy("BB[10,3]"))
    differing = [
        a[0] for a, b in zip(plain[0], typed.instrumentation()) if a != b
    ]
    assert differing == [altered]

    monkeypatch.setattr(runner, "WorkloadRun", typed_run)
    progress = _Progress()
    runner.run_strategies(
        config, workload, ["BB[10,2]", "BB[10,3]"], jobs=1, log=progress
    )
    assert sorted(progress.labels) == ["BB[10,2]", "BB[10,3]"]
