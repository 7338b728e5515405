"""Run every experiment at full scale and print the paper-style output.

Usage::

    python -m repro.experiments                 # everything (a few minutes)
    python -m repro.experiments fig3 table2     # just the named ones
    python -m repro.experiments --jobs 4 --log fig6   # 4 workers, progress
    python -m repro.experiments --cache-dir .repro-cache fig6   # disk cache
    python -m repro.experiments --trace-out traces fig6   # Chrome trace
    python -m repro.experiments --trace-out traces telemetry  # summary

``--jobs`` caps the harness's local workers (overriding ``REPRO_JOBS``;
``--jobs 1`` runs serially) and ``--log`` prints one progress line per
completed sweep point to stderr.  ``--cache-dir`` (or the
``REPRO_CACHE_DIR`` environment variable) persists the static-pipeline
cache to disk: a second invocation rebuilds nothing and reports a 100%
pipeline-cache hit rate in the stats line printed at the end.  To
share a warm cache, point ``--cache-dir`` at a shared mount or copy
the directory; a missing or damaged entry is a miss and is rebuilt
with byte-identical output.

``--trace-out DIR`` (or the ``REPRO_TRACE_DIR`` environment variable)
enables :mod:`repro.telemetry`: every simulation and harness task is
recorded and the run writes ``DIR/trace.json`` (Chrome ``trace_event``
format — load it in chrome://tracing or https://ui.perfetto.dev) and
``DIR/metrics.json``.  ``--trace-categories`` (or
``REPRO_TRACE_CATEGORIES``) selects event categories.  The
pseudo-experiment ``telemetry`` prints a text summary of the trace —
of the current invocation when run together with experiments, or of an
existing ``DIR/trace.json`` (falling back to the streamed
``DIR/trace.jsonl``, tolerating a torn tail) when run alone.  Without
``--trace-out`` nothing is recorded and the output is byte-identical
to a build without telemetry.

Crash-safe runs::

    python -m repro.experiments --run-dir run1 --jobs 4 fig6
    # ... SIGKILL, power loss, OOM ...
    python -m repro.experiments resume run1

``--run-dir DIR`` makes the invocation durable: the chosen experiments
and options are written to ``DIR/manifest.json``, every sweep runs
through the broker queue at ``DIR/broker`` (its local workers' leases
are expired the moment one dies), and with ``--trace-out`` events also
stream to ``trace.jsonl`` as they happen.  ``resume DIR`` replays the
manifest against the same queue: sweep ids are derived from the tasks'
content, so finished tasks are replayed, interrupted tasks rerun from
their start, and the completed output is byte-identical to an
uninterrupted run.

Per-task knob: ``--task-timeout SECONDS`` (or ``REPRO_TASK_TIMEOUT``;
zero or negative means no timeout).  The attempt budget, the backoff
and the lease TTL are constants in :mod:`repro.experiments.broker`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from repro.experiments import (
    extras,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    harness,
    open_system,
    table1,
    table2,
)
from repro.experiments.config import ExperimentConfig
from repro.telemetry import (
    TRACE_CATEGORIES_ENV,
    TRACE_DIR_ENV,
    TimelineAnalyzer,
    TraceRecorder,
    current_recorder,
    env_categories,
    render_report,
    set_recorder,
    write_chrome_trace,
    write_metrics,
)
from repro.tuning.pipeline import CACHE_DIR_ENV, default_cache


def _run_fig3(jobs, log):
    print(fig3.format_result(fig3.run()))


def _run_table1(jobs, log):
    result = table1.run(jobs=jobs, log=log)
    print(table1.format_result(result))
    print()
    print(fig5.format_result(fig5.run(result)))


def _run_fig4(jobs, log):
    config = ExperimentConfig(slots=84, interval=400.0, seed=101)
    print(fig4.format_result(fig4.run(config, jobs=jobs, log=log)))


def _run_fig6(jobs, log):
    print(
        fig6.format_result(
            fig6.run(
                ExperimentConfig.paper(), strategy="Loop[45]", jobs=jobs, log=log
            )
        )
    )


def _run_fig7(jobs, log):
    print(
        fig7.format_result(
            fig7.run(
                ExperimentConfig.paper(), strategy="Loop[45]", jobs=jobs, log=log
            )
        )
    )


def _run_table2(jobs, log):
    result = table2.run(ExperimentConfig.fairness_paper(), jobs=jobs, log=log)
    print(table2.format_result(result))
    print()
    print(fig8.format_result(fig8.run(table2=result)))


def _run_faults(jobs, log):
    print(
        extras.format_fault_resilience(
            extras.fault_resilience(jobs=jobs, log=log)
        )
    )


def _run_extras(jobs, log):
    print(extras.format_atom(extras.atom_comparison()))
    accuracy = extras.typing_accuracy()
    print(
        f"\ntyping accuracy: {accuracy.misclassified}/{accuracy.total_loops} "
        f"loops misclassified ({accuracy.error_rate:.1%}; paper ~15%)"
    )
    print()
    print(
        extras.format_sweep(
            extras.lookahead_sweep(ExperimentConfig.paper(), jobs=jobs, log=log)
        )
    )
    print()
    print(
        extras.format_sweep(
            extras.min_size_sweep(ExperimentConfig.paper(), jobs=jobs, log=log)
        )
    )
    three = extras.three_core_speedup(ExperimentConfig.paper())
    print(
        f"\n3-core AMP: avg {three.average_time_decrease:+.2f}%, "
        f"throughput {three.throughput_improvement:+.2f}%, "
        f"max-stretch {three.max_stretch_decrease:+.2f}%"
    )
    many = extras.many_core_speedup()
    print(
        f"8-core AMP: avg {many.average_time_decrease:+.2f}%, "
        f"throughput {many.throughput_improvement:+.2f}%, "
        f"max-stretch {many.max_stretch_decrease:+.2f}%"
    )
    threads = extras.multithreaded_comparison()
    print(
        f"multi-threaded app: makespan {threads.makespan_decrease:+.1f}%, "
        f"decisions shared: {threads.decisions_shared}"
    )
    feedback = extras.feedback_adaptation()
    print(
        f"feedback adaptation: {feedback.feedback_gain:+.1f}% more "
        f"post-shock progress ({feedback.resamples} re-samples)"
    )


def _run_open_system(jobs, log):
    print(
        open_system.format_result(
            open_system.run(ExperimentConfig.paper(), jobs=jobs, log=log)
        )
    )


_EXPERIMENTS = {
    "fig3": _run_fig3,
    "fig4": _run_fig4,
    "table1": _run_table1,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "table2": _run_table2,
    "faults": _run_faults,
    "extras": _run_extras,
    "open_system": _run_open_system,
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the paper's experiments and print their tables.",
    )
    parser.add_argument(
        "names",
        nargs="*",
        metavar="experiment",
        help=f"experiments to run (default: all): {', '.join(_EXPERIMENTS)}",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="harness worker processes (default: REPRO_JOBS or cpu count; "
        "1 = serial)",
    )
    parser.add_argument(
        "--log",
        action="store_true",
        help="print per-task sweep progress to stderr",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist the static-pipeline cache under DIR (default: the "
        "REPRO_CACHE_DIR environment variable, if set); repeat runs then "
        "skip the whole static pipeline",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="DIR",
        help="record telemetry and write DIR/trace.json (Chrome "
        "trace_event format) plus DIR/metrics.json (default: the "
        "REPRO_TRACE_DIR environment variable, if set)",
    )
    parser.add_argument(
        "--trace-categories",
        default=None,
        metavar="CATS",
        help="comma-separated trace categories, e.g. "
        "'exec,sched,tuning,quantum' or 'all' (default: the "
        "REPRO_TRACE_CATEGORIES environment variable, or a standard set "
        "excluding the high-volume quantum/segment spans)",
    )
    parser.add_argument(
        "--run-dir",
        default=None,
        metavar="DIR",
        help="make the run durable: write DIR/manifest.json and run "
        "every sweep through the broker queue at DIR/broker; an "
        "interrupted invocation continues with "
        "'python -m repro.experiments resume DIR'",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task wall-clock budget (default: REPRO_TASK_TIMEOUT, "
        "else none; 0 or less = none); an over-budget worker reports the "
        "attempt failed and kills itself, and the task is re-offered "
        "until its attempt budget is spent",
    )
    return parser.parse_args(argv)


def _run_telemetry(trace_dir, live: bool) -> None:
    """Print the summary report for the ``telemetry`` pseudo-experiment.

    Reports on the live recorder when the current invocation also ran
    experiments under ``--trace-out``; otherwise loads a previously
    written ``trace.json`` from *trace_dir* — falling back to the
    streamed ``trace.jsonl`` (tolerating a torn final line) when the
    recording run was killed before it could write ``trace.json``.
    """
    recorder = current_recorder()
    if live and recorder.enabled:
        analyzer = TimelineAnalyzer.from_recorder(recorder)
    else:
        if not trace_dir:
            raise SystemExit(
                "telemetry: nothing recorded and no trace directory; pass "
                f"--trace-out DIR or set {TRACE_DIR_ENV}"
            )
        path = Path(trace_dir) / "trace.json"
        tolerant = False
        if not path.exists():
            streamed = Path(trace_dir) / "trace.jsonl"
            if streamed.exists():
                path, tolerant = streamed, True
            else:
                raise SystemExit(f"telemetry: {path} does not exist")
        metrics_path = Path(trace_dir) / "metrics.json"
        metrics = (
            json.loads(metrics_path.read_text(encoding="utf-8"))
            if metrics_path.exists()
            else None
        )
        analyzer = TimelineAnalyzer.from_file(
            path, metrics=metrics, tolerant_tail=tolerant
        )
    print(render_report(analyzer))


#: Options carried through DIR/manifest.json so ``resume DIR`` replays
#: the original invocation without re-typing it.  Keys an older writer
#: recorded for options that no longer exist are ignored.
_MANIFEST_KEYS = (
    "names",
    "jobs",
    "log",
    "cache_dir",
    "trace_out",
    "trace_categories",
    "task_timeout",
)


def _write_manifest(run_dir: Path, args, chosen: list) -> None:
    manifest = {key: getattr(args, key) for key in _MANIFEST_KEYS}
    manifest["names"] = chosen
    run_dir.mkdir(parents=True, exist_ok=True)
    tmp = run_dir / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    os.replace(tmp, run_dir / "manifest.json")


def _merge_manifest(run_dir: Path, args):
    """The resumed invocation's effective options: the manifest's,
    overridden by anything given again on the resume command line."""
    path = run_dir / "manifest.json"
    try:
        manifest = json.loads(path.read_text())
    except OSError:
        raise SystemExit(
            f"resume: {path} does not exist; was this directory created "
            f"with --run-dir?"
        )
    except ValueError as exc:
        raise SystemExit(f"resume: {path} is not valid JSON: {exc}")
    for key in _MANIFEST_KEYS:
        override = getattr(args, key, None)
        if key != "names" and override not in (None, False):
            manifest[key] = override
    merged = argparse.Namespace(**{
        key: manifest.get(key) for key in _MANIFEST_KEYS
    })
    return merged, list(manifest.get("names") or _EXPERIMENTS)


def _execute(args, chosen: list, run_dir: Optional[Path]) -> None:
    """Run *chosen* experiments under *args*; the body shared by a
    fresh invocation and ``resume``."""
    if args.cache_dir:
        # Through the environment so harness worker processes — spawned
        # as well as forked — attach the same disk tier.
        os.environ[CACHE_DIR_ENV] = args.cache_dir
        default_cache().set_disk_dir(args.cache_dir)
    # The task timeout travels through the environment too, so sweep
    # workers and resumed invocations all see it.
    if args.task_timeout is not None:
        os.environ[harness.TASK_TIMEOUT_ENV] = str(args.task_timeout)
    if args.trace_categories:
        os.environ[TRACE_CATEGORIES_ENV] = args.trace_categories
    if args.trace_out:
        # Through the environment for the same reason as --cache-dir:
        # harness workers read it when building their own recorders.
        os.environ[TRACE_DIR_ENV] = args.trace_out
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if run_dir is not None:
        harness.set_run_root(run_dir)
    live = any(name != "telemetry" for name in chosen)
    recorder = None
    if trace_dir and live:
        # A `telemetry`-only invocation must not install (and later
        # flush) an empty recorder over an existing trace.json.  Under
        # a durable run the recorder also streams each event to
        # trace.jsonl as it happens, so a killed run still leaves a
        # loadable trace.
        stream_to = (
            Path(trace_dir) / "trace.jsonl" if run_dir is not None else None
        )
        recorder = TraceRecorder(
            categories=env_categories(), stream_to=stream_to
        )
        set_recorder(recorder)
    log = (
        (lambda line: print(line, file=sys.stderr, flush=True))
        if args.log
        else None
    )
    try:
        for name in chosen:
            print(f"===== {name} =====")
            if name == "telemetry":
                _run_telemetry(trace_dir, live)
            else:
                _EXPERIMENTS[name](args.jobs, log)
            print()
    finally:
        if run_dir is not None:
            harness.set_run_root(None)
        if recorder is not None:
            recorder.close_stream()
    if recorder is not None:
        out = Path(trace_dir)
        trace_path = write_chrome_trace(recorder, out / "trace.json")
        write_metrics(recorder, out / "metrics.json")
        print(
            f"telemetry: {len(recorder.events)} events from "
            f"{len(recorder.runs)} runs -> {trace_path}",
            file=sys.stderr,
        )
    stats = default_cache().stats()
    print(
        f"pipeline cache: {stats['hits']} hits / {stats['misses']} misses "
        f"({stats['hit_rate']:.0%} hit rate, {stats['disk_hits']} from disk, "
        f"{stats['corruptions']} corrupt, {stats['evicted_entries']} "
        f"evicted / {stats['evicted_bytes']} bytes)",
        file=sys.stderr,
    )


def main(argv) -> None:
    args = _parse_args(argv)
    if args.names and args.names[0] == "resume":
        if len(args.names) != 2:
            raise SystemExit("usage: python -m repro.experiments resume RUNDIR")
        run_dir = Path(args.names[1])
        merged, chosen = _merge_manifest(run_dir, args)
        _execute(merged, chosen, run_dir)
        return
    chosen = args.names or list(_EXPERIMENTS)
    for name in chosen:
        if name not in _EXPERIMENTS and name != "telemetry":
            raise SystemExit(
                f"unknown experiment {name!r}; choose from "
                f"{sorted(_EXPERIMENTS) + ['resume', 'telemetry']}"
            )
    run_dir = Path(args.run_dir) if args.run_dir else None
    if run_dir is not None:
        _write_manifest(run_dir, args, chosen)
    _execute(args, chosen, run_dir)


if __name__ == "__main__":
    main(sys.argv[1:])
