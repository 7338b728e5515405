"""Additional experiments the paper reports in prose.

* :func:`lookahead_sweep` — §IV-C2: "less lookahead gives higher
  throughput but at a significant cost in fairness."
* :func:`min_size_sweep` — §IV-C4: "considering smaller blocks and
  intervals generally results in higher throughput" (at overhead cost).
* :func:`atom_comparison` — §III: binaries instrumented with the tuned
  framework execute ~10x faster than ATOM-style general instrumentation
  (measured as per-block probe cost for every-block insertion).
* :func:`three_core_speedup` — §VII: on a 3-core (2 fast, 1 slow) AMP
  "performance results for our technique are similar (e.g. 32% speedup)."
* :func:`many_core_speedup` — §VI-C: grouping cores into types keeps the
  technique viable on larger AMPs.
* :func:`multithreaded_comparison` — §VI-A: threads of one process share
  the binary's phase marks and tuning state, so multi-threaded
  applications work unmodified.
* :func:`feedback_adaptation` — §VI-B: "the workload on a system may
  change the perceived characteristics of the individual cores ...
  simple feedback mechanisms can be added"; compares the one-shot
  runtime against the re-sampling feedback runtime under a mid-run
  workload shock.
* :func:`typing_accuracy` — §II-A3: the static block typer
  "miss-classifies only about 15% of loops" against observed behaviour.
* :func:`fault_resilience` — robustness extension: sweep the injected
  fault rate (counter failures, corrupt reads, affinity errors,
  hotplug, DVFS — :mod:`repro.sim.faults`) and measure how gracefully
  the hardened runtime's throughput advantage degrades.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.annotate import annotate_program
from repro.analysis.block_typing import ProfileBlockTyper, StaticBlockTyper
from repro.analysis.loop_summary import summarize_loops
from repro.instrument.atom_baseline import AtomInstrumenter, ATOM_PROBE_CYCLES
from repro.instrument.phase_mark import MARK_FIRE_CYCLES
from repro.metrics.throughput import throughput_improvement
from repro.metrics.fairness import percent_decrease
from repro.sim.machine import core2quad_amp, many_core_amp, three_core_amp
from repro.workloads.spec import spec_suite
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import run_tasks
from repro.experiments.runner import (
    make_workload,
    run_baseline,
    run_strategies,
    run_technique,
)
from repro.experiments.report import format_table


# -- §IV-C2: lookahead depth ---------------------------------------------------

@dataclass
class SweepResult:
    xs: tuple
    throughput: list
    max_stretch_decrease: list
    label: str


def _strategy_sweep(config, workload, baseline, strategies, jobs, log):
    """Fan a list of strategy names out over the harness; collect the
    throughput/fairness deltas each sweep reports."""
    tuned_runs = run_strategies(config, workload, strategies, jobs=jobs, log=log)
    throughputs, fairness = [], []
    for tuned in tuned_runs:
        throughputs.append(
            throughput_improvement(baseline.result, tuned.result, config.interval)
        )
        fairness.append(
            percent_decrease(
                baseline.fairness.max_stretch, tuned.fairness.max_stretch
            )
        )
    return throughputs, fairness


def lookahead_sweep(
    config: ExperimentConfig = None,
    depths=(0, 1, 2, 3),
    min_size: int = 15,
    jobs=None,
    log=None,
) -> SweepResult:
    """Throughput and fairness across lookahead depths (BB technique)."""
    config = config or ExperimentConfig.paper()
    workload = make_workload(config)
    baseline = run_baseline(config, workload)
    throughputs, fairness = _strategy_sweep(
        config,
        workload,
        baseline,
        [f"BB[{min_size},{depth}]" for depth in depths],
        jobs,
        log,
    )
    return SweepResult(tuple(depths), throughputs, fairness, "lookahead depth")


def min_size_sweep(
    config: ExperimentConfig = None,
    sizes=(30, 45, 60),
    technique: str = "Loop",
    jobs=None,
    log=None,
) -> SweepResult:
    """Throughput and fairness across minimum section sizes."""
    config = config or ExperimentConfig.paper()
    workload = make_workload(config)
    baseline = run_baseline(config, workload)
    throughputs, fairness = _strategy_sweep(
        config,
        workload,
        baseline,
        [f"{technique}[{size}]" for size in sizes],
        jobs,
        log,
    )
    return SweepResult(tuple(sizes), throughputs, fairness, "minimum size")


def format_sweep(result: SweepResult) -> str:
    rows = [
        (str(x), f"{t:+.2f}", f"{f:+.2f}")
        for x, t, f in zip(result.xs, result.throughput, result.max_stretch_decrease)
    ]
    return format_table(
        (result.label, "throughput %", "max-stretch %"),
        rows,
        title=f"Sweep over {result.label}",
    )


# -- §III: ATOM comparison ------------------------------------------------------

@dataclass
class AtomComparisonRow:
    benchmark: str
    atom_probe_bytes: int
    atom_probes: int
    mark_bytes: int
    marks: int
    dynamic_cost_ratio: float


@dataclass
class AtomComparisonResult:
    rows: list

    def mean_dynamic_ratio(self) -> float:
        return sum(r.dynamic_cost_ratio for r in self.rows) / len(self.rows)


def atom_comparison(min_size: int = 45) -> AtomComparisonResult:
    """Per-probe dynamic cost of ATOM-style vs tuned instrumentation.

    The paper measured a 10x execution-speed difference when inserting
    code before every basic block; the fragments' per-execution cycle
    costs carry that ratio (full register save/restore + generic callout
    vs specialized jump + few pushes).
    """
    from repro.instrument.marker import LoopStrategy
    from repro.instrument.rewriter import instrument

    atom = AtomInstrumenter()
    rows = []
    for benchmark in spec_suite():
        atom_result = atom.instrument(benchmark.program)
        tuned = instrument(benchmark.program, LoopStrategy(min_size))
        rows.append(
            AtomComparisonRow(
                benchmark.name,
                atom_result.added_bytes,
                atom_result.probe_count,
                tuned.added_bytes,
                len(tuned.marks),
                ATOM_PROBE_CYCLES / MARK_FIRE_CYCLES,
            )
        )
    return AtomComparisonResult(rows)


def format_atom(result: AtomComparisonResult) -> str:
    rows = [
        (
            r.benchmark,
            f"{r.atom_probes}",
            f"{r.atom_probe_bytes}",
            f"{r.marks}",
            f"{r.mark_bytes}",
            f"{r.dynamic_cost_ratio:.1f}x",
        )
        for r in result.rows
    ]
    return format_table(
        ("benchmark", "ATOM probes", "ATOM bytes", "marks", "mark bytes", "per-probe cost"),
        rows,
        title="ATOM-style vs phase-mark instrumentation (Section III)",
    )


# -- §VII: the 3-core AMP --------------------------------------------------------

@dataclass
class ThreeCoreResult:
    average_time_decrease: float
    throughput_improvement: float
    max_stretch_decrease: float


def three_core_speedup(
    config: ExperimentConfig = None, strategy: str = "Loop[45]"
) -> ThreeCoreResult:
    """Run the standard comparison on the 2-fast/1-slow machine."""
    config = (config or ExperimentConfig.paper()).with_(
        machine=three_core_amp()
    )
    workload = make_workload(config)
    baseline = run_baseline(config, workload)
    tuned = run_technique(config, strategy, workload=workload)
    comparison = tuned.fairness.versus(baseline.fairness)
    return ThreeCoreResult(
        comparison.average_time_decrease,
        throughput_improvement(baseline.result, tuned.result, config.interval),
        comparison.max_stretch_decrease,
    )


def many_core_speedup(
    config: ExperimentConfig = None,
    strategy: str = "Loop[45]",
    fast_cores: int = 4,
    slow_cores: int = 4,
) -> ThreeCoreResult:
    """Section VI-C: the standard comparison on a larger AMP.

    The runtime explores and assigns core *types*, so its monitoring
    cost does not grow with core count — the paper's proposed answer to
    the many-core scalability concern.
    """
    base = config or ExperimentConfig.paper()
    config = base.with_(
        machine=many_core_amp(fast_cores, slow_cores),
        slots=max(base.slots, 2 * (fast_cores + slow_cores)),
    )
    workload = make_workload(config)
    baseline = run_baseline(config, workload)
    tuned = run_technique(config, strategy, workload=workload)
    comparison = tuned.fairness.versus(baseline.fairness)
    return ThreeCoreResult(
        comparison.average_time_decrease,
        throughput_improvement(baseline.result, tuned.result, config.interval),
        comparison.max_stretch_decrease,
    )


# -- §VI-A: multi-threaded applications -----------------------------------------

@dataclass
class MultithreadedResult:
    """Tuned vs stock completion of one multi-threaded application."""

    baseline_makespan: float
    tuned_makespan: float
    decisions_shared: bool
    total_switches: float

    @property
    def makespan_decrease(self) -> float:
        return percent_decrease(self.baseline_makespan, self.tuned_makespan)


def multithreaded_comparison(
    threads: int = 2, strategy: str = "Loop[45]", delta: float = 0.12
) -> MultithreadedResult:
    """Run one multi-threaded phased application stock vs tuned.

    Threads share one tuning state (the marks' descriptor data lives in
    the process image), so a phase type decided by any thread steers all
    of them.  The machine also carries two streaming background jobs —
    segregation only matters on a loaded machine.
    """
    from repro.instrument.marker import parse_strategy
    from repro.sim.executor import Simulation
    from repro.sim.process import SimProcess, Trace, spawn_thread_group
    from repro.tuning.pipeline import baseline_binary, tune_program
    from repro.tuning.runtime import PhaseTuningRuntime
    from repro.workloads.spec import spec_benchmark

    machine = core2quad_amp()
    bench = spec_benchmark("172.mgrid")
    tuned = tune_program(
        bench.program, parse_strategy(strategy), machine, bench.spec
    )
    tuned_trace = tuned.tuned_trace
    stock_trace = tuned.baseline_trace
    streamer = spec_benchmark("459.GemsFDTD")
    streamer_trace, _ = baseline_binary(
        streamer.program, machine, streamer.spec
    )

    def run(trace_template, runtime):
        simulation = Simulation(machine, runtime=runtime)
        group = spawn_thread_group(
            1,
            bench.name,
            [Trace(trace_template.nodes) for _ in range(threads)],
            machine.all_cores_mask,
            isolated_time=1.0,
        )
        for thread in group:
            simulation.add_process(thread, 0.0)
        for pid in (100, 101):
            simulation.add_process(
                SimProcess(
                    pid, "bg", Trace(streamer_trace.nodes),
                    machine.all_cores_mask, isolated_time=1.0,
                ),
                0.0,
            )
        simulation.run(100_000.0)
        makespan = max(t.completion for t in group)
        return makespan, group

    baseline_makespan, _ = run(stock_trace, None)
    runtime = PhaseTuningRuntime(machine, delta)
    tuned_makespan, group = run(tuned_trace, runtime)
    shared = all(
        thread.tuner_state is group[0].tuner_state for thread in group
    )
    switches = sum(t.stats.switches for t in group)
    return MultithreadedResult(
        baseline_makespan, tuned_makespan, shared, switches
    )


# -- §VI-B: feedback adaptation ---------------------------------------------------

@dataclass
class FeedbackResult:
    """Post-shock progress of a long-running process, one-shot vs
    feedback-adaptive tuning."""

    standard_instructions: float
    feedback_instructions: float
    resamples: int

    @property
    def feedback_gain(self) -> float:
        if self.standard_instructions <= 0:
            return 0.0
        return 100.0 * (
            self.feedback_instructions - self.standard_instructions
        ) / self.standard_instructions


def feedback_adaptation(
    shock_time: float = 2.0,
    horizon: float = 25.0,
    resample_after: int = 40,
    delta: float = 0.12,
) -> FeedbackResult:
    """Section VI-B: adapt when the cores' perceived behaviour changes.

    A long-running phased process tunes itself on a quiet machine; at
    ``shock_time`` two streaming hogs arrive pinned to the fast pair and
    pollute its shared L2, so decisions made pre-shock go stale.  The
    one-shot runtime keeps them; the feedback runtime re-samples every
    ``resample_after`` firings and can move away.  Returns the tagged
    process's instructions retired within the horizon under both.
    """
    from repro.instrument.marker import LoopStrategy
    from repro.sim.executor import Simulation
    from repro.sim.process import SimProcess, Trace
    from repro.tuning.pipeline import baseline_binary, tune_program
    from repro.tuning.runtime import PhaseTuningRuntime
    from repro.workloads.synthetic import (
        PhaseSpec,
        build_benchmark,
        cache_kernel,
        stream_kernel,
    )

    machine = core2quad_amp()

    # Long enough that most of the victim's life is post-shock.
    victim = build_benchmark(
        "victim",
        [
            PhaseSpec("hot", cache_kernel(8, 9), 40_000),
            PhaseSpec("cool", stream_kernel(12, 6), 8_000),
        ],
        outer_trips=40_000,
        cold_procs=2,
    )
    victim_trace = tune_program(
        victim.program, LoopStrategy(20), machine, victim.spec
    ).tuned_trace

    hog = build_benchmark(
        "hog",
        [PhaseSpec("burn", stream_kernel(12, 6), 2_000_000)],
        outer_trips=200,
        cold_procs=0,
    )
    hog_trace, _ = baseline_binary(hog.program, machine, hog.spec)

    def run(runtime):
        simulation = Simulation(machine, runtime=runtime)
        tagged = SimProcess(
            1, "victim", Trace(victim_trace.nodes),
            machine.all_cores_mask, isolated_time=1.0,
        )
        simulation.add_process(tagged, 0.0)
        fast_mask = machine.affinity_of_type(machine.core_types()[0])
        for pid in (2, 3):
            simulation.add_process(
                SimProcess(
                    pid, "hog", Trace(hog_trace.nodes), fast_mask,
                    isolated_time=1.0,
                ),
                shock_time,
            )
        simulation.run(horizon)
        return tagged

    standard = run(PhaseTuningRuntime(machine, delta))
    feedback_runtime = PhaseTuningRuntime(
        machine, delta, resample_after=resample_after
    )
    feedback = run(feedback_runtime)
    return FeedbackResult(
        standard.stats.instructions,
        feedback.stats.instructions,
        feedback_runtime.resamples,
    )


# -- §II-A3: static typing accuracy ------------------------------------------------

@dataclass
class TypingAccuracyResult:
    total_loops: int
    misclassified: int

    @property
    def error_rate(self) -> float:
        if self.total_loops == 0:
            return 0.0
        return self.misclassified / self.total_loops


def typing_accuracy(ipc_threshold: float = 0.1) -> TypingAccuracyResult:
    """Compare static (k-means) loop types against profile-derived ones.

    Mirrors Section II-A3's protocol: type blocks statically, summarize
    loops with Algorithm 1, and compare the dominant loop types against
    the typing obtained from per-core execution profiles.  The paper
    reports ~15% of loops misclassified.
    """
    machine = core2quad_amp()
    static_typer = StaticBlockTyper(num_types=2)
    profile_typer = ProfileBlockTyper(machine, ipc_threshold)

    total = 0
    wrong = 0
    for benchmark in spec_suite():
        program = benchmark.program
        static_summary = summarize_loops(
            annotate_program(program, static_typer.type_blocks(program))
        )
        profile_summary = summarize_loops(
            annotate_program(program, profile_typer.type_blocks(program))
        )
        for uid, static_loop in static_summary.all_loops.items():
            profile_loop = profile_summary.all_loops.get(uid)
            if profile_loop is None or static_loop.dominant_type is None:
                continue
            total += 1
            if static_loop.dominant_type != profile_loop.dominant_type:
                wrong += 1
    return TypingAccuracyResult(total, wrong)


# -- robustness: fault-rate sweep -------------------------------------------------

#: Hardened-runtime settings used at every fault rate (including 0) so
#: the sweep varies exactly one thing: the injected fault rate.
HARDENED_RUNTIME_KWARGS = dict(
    samples_per_type=3,
    max_monitor_retries=16,
    max_affinity_failures=4,
)


@dataclass
class FaultResilienceRow:
    """One fault-rate point of the resilience sweep.

    Attributes:
        rate: the abstract fault rate fed to
            :meth:`~repro.sim.faults.FaultPlan.scaled`.
        baseline_throughput: stock-scheduler instructions within the
            interval, under the same fault plan.
        tuned_throughput: hardened-runtime instructions.
        improvement: tuned-over-baseline throughput improvement (%).
        degradations: degradation-log entries the runtime recorded.
        invalidations: decided assignments discarded after hotplug/DVFS.
        degraded_decisions: phase types that fell back to FREE after
            exhausting counter retries.
        affinity_errors: failed affinity syscalls observed.
        rejected_samples: non-finite/non-positive IPC readings dropped.
    """

    rate: float
    baseline_throughput: float
    tuned_throughput: float
    improvement: float
    degradations: int
    invalidations: int
    degraded_decisions: int
    affinity_errors: int
    rejected_samples: int


@dataclass
class FaultResilienceResult:
    rows: list

    @property
    def rates(self) -> tuple:
        return tuple(row.rate for row in self.rows)

    @property
    def improvements(self) -> list:
        return [row.improvement for row in self.rows]


def _fault_resilience_point(task: tuple) -> FaultResilienceRow:
    """Harness worker: baseline + hardened-tuned run under one plan."""
    from repro.sim.faults import FaultPlan
    from repro.tuning.runtime import PhaseTuningRuntime

    config, strategy, workload, rate, seed = task
    machine = config.resolved_machine()
    plan = FaultPlan.scaled(rate, machine, config.interval, seed=seed)
    baseline = run_baseline(config, workload, faults=plan)
    runtime = PhaseTuningRuntime(
        machine,
        config.ipc_threshold,
        tie_policy=config.tie_policy,
        **HARDENED_RUNTIME_KWARGS,
    )
    tuned = run_technique(
        config,
        strategy,
        workload=workload,
        runtime=runtime,
        faults=plan,
    )
    return FaultResilienceRow(
        rate,
        baseline.instructions,
        tuned.instructions,
        throughput_improvement(
            baseline.result, tuned.result, config.interval
        ),
        len(runtime.degradation_log),
        runtime.invalidations,
        runtime.degraded_decisions,
        runtime.affinity_errors,
        runtime.rejected_samples,
    )


def fault_resilience(
    config: ExperimentConfig = None,
    rates=(0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3),
    strategy: str = "Loop[45]",
    seed: int = 7,
    jobs=None,
    log=None,
) -> FaultResilienceResult:
    """Sweep the injected fault rate; measure graceful degradation.

    At every rate (including 0) both runs execute under the *same*
    seeded :class:`~repro.sim.faults.FaultPlan` and the tuned run uses
    the same hardened runtime settings, so the only independent
    variable is the fault rate.  A robust runtime keeps a positive
    throughput improvement that shrinks smoothly as the machine gets
    more hostile — no crash, no cliff to zero.
    """
    from repro.experiments.harness import derive_seed

    config = config or ExperimentConfig.paper()
    workload = make_workload(config)
    tasks = [
        (config, strategy, workload, rate, derive_seed(seed, "fault", rate))
        for rate in rates
    ]
    rows = run_tasks(
        _fault_resilience_point,
        tasks,
        jobs=jobs,
        log=log,
        labels=[f"fault rate {rate:g}" for rate in rates],
    )
    return FaultResilienceResult(list(rows))


def format_fault_resilience(result: FaultResilienceResult) -> str:
    rows = [
        (
            f"{row.rate:g}",
            f"{row.baseline_throughput:.3e}",
            f"{row.tuned_throughput:.3e}",
            f"{row.improvement:+.2f}",
            f"{row.degradations}",
            f"{row.invalidations}",
            f"{row.degraded_decisions}",
        )
        for row in result.rows
    ]
    return format_table(
        (
            "fault rate",
            "stock instrs",
            "tuned instrs",
            "improvement %",
            "degradations",
            "re-explores",
            "FREE fallbacks",
        ),
        rows,
        title="Throughput improvement under fault injection",
    )


if __name__ == "__main__":
    print(format_atom(atom_comparison()))
    accuracy = typing_accuracy()
    print(
        f"\nTyping accuracy: {accuracy.misclassified}/{accuracy.total_loops} "
        f"loops misclassified ({accuracy.error_rate:.1%})"
    )
