"""Wall-clock benchmark of the simulator's executor paths.

Times the two quantum-execution paths — stepped (``batched=False``, the
tree-walking reference) and batched (the default) — on three scenarios,
and writes ``BENCH_sim.json``:

* the table2 fairness workload (paper scale by default), built once so
  both paths run against the same warm static pipeline and the timing
  is simulation wall time proper;
* a 1000-process synthetic workload on a 16-core AMP, the
  queue-pressure shape where per-turn overhead dominates;
* an equally sized open-system run (same core count, arrivals offered
  over the same interval, plus cancellations and breakdown windows) —
  gated to stay within 2x the closed batched time, so dynamic-event
  churn degrades the executor gracefully rather than collapsing it.

It also runs ``python -m repro.experiments table2`` end to end in
subprocesses, with and without ``REPRO_NO_BATCH``, and compares stdout.

Usage::

    PYTHONPATH=src python benchmarks/bench_sim.py           # paper scale
    PYTHONPATH=src python benchmarks/bench_sim.py --quick   # CI smoke

Three properties are load-independent and therefore *gated* (nonzero
exit on violation):

* both paths must produce exactly equal results — same completion
  floats, switch counts, buckets, idle accounting — on the closed
  scenarios and the open system;
* the open-system batched run takes at most 2x the closed one;
* the batched and stepped table2 CLI runs must print byte-identical
  stdout.

The wall-clock numbers and speedups depend on the host, so they are
reported, not gated.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.experiments.config import ExperimentConfig
from repro.sim.executor import NO_BATCH_ENV
from repro.sim.machine import core2quad_amp, many_core_amp
from repro.sim.opensys import OpenSystemPlan, OpenSystemRun
from repro.tuning.pipeline import PipelineCache
from repro.workloads.workload import Workload, WorkloadRun

_REPO = Path(__file__).resolve().parent.parent

#: The two executor paths, in timing order.
_MODES = ("stepped", "batched")


def _result_summary(result):
    """Everything a SimulationResult reports, as comparable plain data."""
    return (
        result.time,
        tuple(
            (
                p.pid,
                p.name,
                p.completion,
                p.stats.instructions,
                tuple(sorted(p.stats.cycles_by_type.items())),
                p.stats.switches,
                p.stats.migrations,
                p.stats.mark_overhead_cycles,
                p.stats.cpu_time,
            )
            for p in result.completed
        ),
        tuple(sorted(result.throughput_buckets.items())),
        tuple(sorted(result.idle_time_by_core.items())),
    )


@contextlib.contextmanager
def _mode(name):
    """Select an executor path through the ``REPRO_NO_BATCH``
    kill-switch, which reaches the Simulation constructor through
    WorkloadRun/OpenSystemRun exactly as it would a CLI invocation."""
    saved = os.environ.pop(NO_BATCH_ENV, None)
    if name == "stepped":
        os.environ[NO_BATCH_ENV] = "1"
    try:
        yield
    finally:
        os.environ.pop(NO_BATCH_ENV, None)
        if saved is not None:
            os.environ[NO_BATCH_ENV] = saved


def _timed_modes(scenario) -> tuple:
    """Run a freshly built *scenario* — ``(build, run, summarize)`` —
    once per path; returns (per-path seconds, summaries-equal bool).
    Only ``run`` is timed."""
    build, run, summarize = scenario
    seconds = {}
    summaries = {}
    for name in _MODES:
        with _mode(name):
            built = build()
            start = time.perf_counter()
            result = run(built)
            seconds[name] = time.perf_counter() - start
            summaries[name] = summarize(result)
    return seconds, summaries["stepped"] == summaries["batched"]


def _mode_entry(seconds, identical) -> dict:
    return {
        "stepped_seconds": round(seconds["stepped"], 3),
        "batched_seconds": round(seconds["batched"], 3),
        "batched_speedup_vs_stepped": round(
            seconds["stepped"] / seconds["batched"], 2
        ),
        "results_identical": identical,
    }


def _closed_run(workload, machine, interval, cache):
    return (
        lambda: WorkloadRun(workload, machine, cache=cache),
        lambda run: run.run(interval),
        _result_summary,
    )


def _table2_workload(config, cache):
    workload = Workload.random(config.slots, seed=config.seed)
    return _closed_run(workload, core2quad_amp(), config.interval, cache)


def _synthetic_workload(slots, interval, cache):
    """*slots* simultaneous processes on a 16-core AMP: per-core queues
    dozens deep, so wall time is pure scheduling-turn throughput."""
    workload = Workload.random(slots, seed=7, queue_length=64)
    return _closed_run(workload, many_core_amp(8, 8), interval, cache)


def _opensys_run(arrivals, interval, cache):
    """An open-system run sized like the synthetic closed scenario:
    *arrivals* jobs offered over *interval* seconds on the 16-core AMP,
    with cancellations and breakdown windows layered on — the
    heavy-churn shape where dynamic events interleave with core turns."""
    machine = many_core_amp(8, 8)
    plan = OpenSystemPlan(
        seed=7,
        rate=arrivals / interval,
        horizon=interval,
        classes=("164.gzip", "183.equake", "429.mcf"),
        cancel_fraction=0.05,
        breakdowns=2,
    )
    return (
        lambda: OpenSystemRun(plan, machine, cache=cache),
        lambda run: run.run(),
        lambda result: json.dumps(result.to_dict(), sort_keys=True),
    )


def _table2_stdout_bench() -> dict:
    """End-to-end CLI byte-identity: table2 on the batched path and
    under ``REPRO_NO_BATCH`` must print the same bytes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO / "src")
    env.pop(NO_BATCH_ENV, None)
    outputs = {}
    seconds = {}
    for name, extra in (("batched", {}), ("stepped", {NO_BATCH_ENV: "1"})):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "table2"],
            capture_output=True,
            env={**env, **extra},
            cwd=_REPO,
            check=True,
        )
        seconds[name] = time.perf_counter() - start
        outputs[name] = proc.stdout
    return {
        "stepped_seconds": round(seconds["stepped"], 2),
        "batched_seconds": round(seconds["batched"], 2),
        "speedup": round(seconds["stepped"] / seconds["batched"], 2),
        "byte_identical": outputs["batched"] == outputs["stepped"],
    }


def _report_line(label, seconds, suffix) -> str:
    return (
        f"{label:<16} stepped {seconds['stepped']:6.2f}s   "
        f"batched {seconds['batched']:6.2f}s {suffix}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small configuration (CI smoke): short interval, 200-process "
        "synthetic, no CLI subprocess comparison",
    )
    parser.add_argument(
        "--output",
        default=str(_REPO / "BENCH_sim.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    if args.quick:
        fairness = ExperimentConfig(slots=18, interval=120.0, seed=101)
        synthetic_slots, synthetic_interval = 200, 300.0
    else:
        fairness = ExperimentConfig.fairness_paper()
        synthetic_slots, synthetic_interval = 1000, 1500.0

    report = {
        "scale": "quick" if args.quick else "full",
        "cpu_count": os.cpu_count(),
    }
    failures = []
    cache = PipelineCache()

    seconds, identical = _timed_modes(_table2_workload(fairness, cache))
    entry = _mode_entry(seconds, identical)
    report["table2_workload"] = entry
    print(_report_line(
        "table2 workload", seconds,
        f"(x{entry['batched_speedup_vs_stepped']} vs stepped)",
    ))
    if not identical:
        failures.append("table2 workload: executor paths disagree")

    seconds, identical = _timed_modes(
        _synthetic_workload(synthetic_slots, synthetic_interval, cache)
    )
    entry = _mode_entry(seconds, identical)
    report[f"synthetic_{synthetic_slots}"] = entry
    print(_report_line(
        f"{synthetic_slots}-proc synth", seconds,
        f"(x{entry['batched_speedup_vs_stepped']} vs stepped)",
    ))
    if not identical:
        failures.append(f"{synthetic_slots}-process synthetic: paths disagree")
    closed_batched = seconds["batched"]

    seconds, identical = _timed_modes(
        _opensys_run(synthetic_slots, synthetic_interval, cache)
    )
    entry = _mode_entry(seconds, identical)
    ratio = seconds["batched"] / closed_batched
    entry["open_vs_closed_batched_ratio"] = round(ratio, 2)
    report[f"opensys_{synthetic_slots}"] = entry
    print(_report_line(
        f"{synthetic_slots}-job opensys", seconds,
        f"(x{ratio:.2f} vs closed batched)",
    ))
    if not identical:
        failures.append(
            f"{synthetic_slots}-job open system: executor paths disagree"
        )
    # Dynamic-event churn must not collapse executor throughput: the
    # open run stays within 2x the closed run.
    if ratio > 2.0:
        failures.append(
            f"open-system batched run {ratio:.2f}x closed (budget 2.0x)"
        )

    if not args.quick:
        stdout_entry = _table2_stdout_bench()
        report["table2_cli_stdout"] = stdout_entry
        print(
            f"table2 CLI  stepped {stdout_entry['stepped_seconds']}s   "
            f"batched {stdout_entry['batched_seconds']}s   "
            f"byte-identical: {stdout_entry['byte_identical']}"
        )
        if not stdout_entry["byte_identical"]:
            failures.append("table2 CLI stdout differs under REPRO_NO_BATCH")

    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {output}")
    if failures:
        for failure in failures:
            print(f"GATE FAILED: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
