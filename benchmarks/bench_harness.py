"""Wall-clock benchmark of the experiment harness and pipeline cache.

Runs a set of experiments serially (``REPRO_JOBS=1`` semantics) from a
cold and then a warm pipeline cache, and once more warm through the
harness's local workers, and writes ``BENCH_experiments.json`` with
per-experiment wall times, the memoization speedup (cold ÷ warm
serial), the parallel speedup (warm serial ÷ warm pooled; ``null`` when
``cpu_count`` is 1), and the static-pipeline cache hit rates.

Usage::

    PYTHONPATH=src python benchmarks/bench_harness.py           # quick scale
    PYTHONPATH=src python benchmarks/bench_harness.py --full    # paper scale
    PYTHONPATH=src python benchmarks/bench_harness.py --quick   # CI smoke

The serial leg runs first from a cold pipeline cache, so its timing
includes every static-pipeline build; its populated cache is then
inherited by the harness's forked workers, which is exactly how
``python -m repro.experiments`` behaves.

Two properties are load-independent and therefore *gated* (nonzero
exit on violation):

* every experiment rerun against a warm cache must hit it for 100% of
  its static-pipeline lookups, and
* memoizing the static pipeline must be at least a 2x speedup over
  rebuilding it cold.

The wall-clock numbers themselves depend on the host (core count,
load), so they are reported, not gated.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro.experiments import extras, fig4, fig6, fig7, table1, table2
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import worker_count
from repro.store import LocalStore
from repro.tuning.pipeline import (
    PipelineCache,
    clear_default_cache,
    default_cache,
    tune_program,
)
from repro.workloads.spec import spec_benchmark
from repro.workloads.workload import Workload


def _experiments(config, fairness, quick):
    """(name, callable(jobs)) pairs; callables are closures over config."""
    deltas = (0.02, 0.08, 0.18) if quick else None

    def fig4_run(jobs):
        return fig4.run(config, jobs=jobs)

    def fig6_run(jobs):
        if deltas is None:
            return fig6.run(config, strategy="Loop[45]", jobs=jobs)
        return fig6.run(config, deltas=deltas, strategy="Loop[45]", jobs=jobs)

    def fig7_run(jobs):
        return fig7.run(config, strategy="Loop[45]", jobs=jobs)

    def table1_run(jobs):
        return table1.run(jobs=jobs)

    def table2_run(jobs):
        return table2.run(fairness, jobs=jobs)

    def sweeps_run(jobs):
        extras.lookahead_sweep(config, jobs=jobs)
        return extras.min_size_sweep(config, jobs=jobs)

    pairs = [
        ("fig6", fig6_run),
        ("table1", table1_run),
        ("fig4", fig4_run),
    ]
    if not quick:
        pairs += [
            ("fig7", fig7_run),
            ("table2", table2_run),
            ("extras-sweeps", sweeps_run),
        ]
    return pairs


def _timed(fn, jobs):
    start = time.perf_counter()
    fn(jobs)
    return time.perf_counter() - start


def _static_pipeline_bench(config) -> dict:
    """Cold vs memoized wall time of the full static pipeline over the
    benchmark set the experiments actually touch."""
    names = sorted(
        Workload.random(config.slots, seed=config.seed).benchmark_names()
    )
    programs = [spec_benchmark(name).program for name in names]
    cache = PipelineCache()
    start = time.perf_counter()
    for program in programs:
        tune_program(program, cache=cache)
    cold = time.perf_counter() - start
    cache.reset_stats()
    start = time.perf_counter()
    for program in programs:
        tune_program(program, cache=cache)
    warm = time.perf_counter() - start
    return {
        "benchmarks": len(programs),
        "cold_seconds": round(cold, 3),
        "warm_seconds": round(warm, 4),
        "memoization_speedup": round(cold / warm, 1) if warm else None,
        "warm_hit_rate": cache.stats()["hit_rate"],
        "_speedup_raw": (cold / warm) if warm else float("inf"),
    }


def _store_bench(config, workdir) -> dict:
    """Second-host cold start from a copy of a warm store directory.

    Three legs over the same static-pipeline workload:

    * ``recompute``: empty everything — the cost a new host pays
      without a warm store (this leg also leaves *workdir*/store warm);
    * ``warm_store``: a copy of that store (what ``cp -a``/``rsync``
      hands a second host) as the cache directory — every entry is
      read and digest-verified, zero rebuilt;
    * ``cold_rebuild``: a second host with an empty cache directory —
      every lookup misses, and the rebuilt store must match the first
      byte for byte.
    """
    names = sorted(
        Workload.random(config.slots, seed=config.seed).benchmark_names()
    )
    programs = [spec_benchmark(name).program for name in names]
    store_dir = Path(workdir) / "store"
    second_host = Path(workdir) / "second-host"

    def _leg(disk_dir):
        cache = PipelineCache(disk_dir=disk_dir)
        start = time.perf_counter()
        for program in programs:
            tune_program(program, cache=cache)
        elapsed = time.perf_counter() - start
        # Byte-level identity via the CAS itself: each leg leaves a
        # ref -> sha256 map of every pipeline artifact it used, and the
        # digest names the exact bytes.  Equal maps mean equal output.
        return elapsed, cache.stats(), LocalStore(disk_dir).refs("pipeline")

    cold, _, baseline = _leg(store_dir)
    shutil.copytree(store_dir, second_host)
    warm, warm_stats, warm_refs = _leg(second_host)
    rebuild, rebuild_stats, rebuild_refs = _leg(Path(workdir) / "cold-host")

    return {
        "benchmarks": len(programs),
        "recompute_seconds": round(cold, 3),
        "warm_store_seconds": round(warm, 4),
        "warm_store_speedup": round(cold / warm, 1) if warm else None,
        "warm_store_misses": warm_stats["misses"],
        "warm_store_disk_hits": warm_stats["disk_hits"],
        "cold_rebuild_seconds": round(rebuild, 3),
        "cold_rebuild_misses": rebuild_stats["misses"],
        "_speedup_raw": (cold / warm) if warm else float("inf"),
        "_warm_identical": bool(warm_refs) and warm_refs == baseline,
        "_rebuild_identical": bool(baseline) and rebuild_refs == baseline,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny configuration and experiment subset (CI smoke)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-scale configuration (minutes)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="parallel worker count (default: REPRO_JOBS or cpu count)",
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_experiments.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    if args.quick:
        config = ExperimentConfig(slots=6, interval=40.0, seed=101)
        fairness = ExperimentConfig(slots=6, interval=60.0, seed=101)
    elif args.full:
        config = ExperimentConfig.paper()
        fairness = ExperimentConfig.fairness_paper()
    else:
        config = ExperimentConfig(slots=10, interval=120.0, seed=101)
        fairness = ExperimentConfig(slots=10, interval=160.0, seed=101)

    jobs = worker_count(args.jobs)
    report = {
        "scale": "quick" if args.quick else ("full" if args.full else "default"),
        "cpu_count": os.cpu_count(),
        "parallel_jobs": jobs,
        "experiments": {},
    }
    failures = []

    static = _static_pipeline_bench(config)
    static_speedup = static.pop("_speedup_raw")
    report["static_pipeline"] = static
    print(
        f"static pipeline ({static['benchmarks']} benchmarks): "
        f"cold {static['cold_seconds']:.2f}s   "
        f"memoized {static['warm_seconds']:.4f}s "
        f"(x{static['memoization_speedup']})"
    )
    if static_speedup < 2.0:
        failures.append(
            f"static-pipeline memoization speedup {static_speedup:.2f}x "
            f"is below the 2x gate"
        )
    if static["warm_hit_rate"] != 1.0:
        failures.append(
            f"static-pipeline warm hit rate "
            f"{static['warm_hit_rate']:.0%} != 100%"
        )

    with tempfile.TemporaryDirectory(prefix="repro-store-bench-") as workdir:
        store = _store_bench(config, workdir)
    store_speedup = store.pop("_speedup_raw")
    warm_identical = store.pop("_warm_identical")
    rebuild_identical = store.pop("_rebuild_identical")
    report["artifact_store"] = store
    print(
        f"artifact store ({store['benchmarks']} benchmarks): "
        f"recompute {store['recompute_seconds']:.2f}s   "
        f"warm store {store['warm_store_seconds']:.4f}s "
        f"(x{store['warm_store_speedup']})   "
        f"cold rebuild {store['cold_rebuild_seconds']:.2f}s"
    )
    if store_speedup < 2.0:
        failures.append(
            f"warm-store cold start speedup {store_speedup:.2f}x is below "
            f"the 2x gate"
        )
    if store["warm_store_misses"] != 0:
        failures.append(
            f"warm-store leg recomputed {store['warm_store_misses']} "
            f"pipeline entries; expected 0"
        )
    if not warm_identical:
        failures.append("warm-store leg produced different pipeline output")
    if not rebuild_identical:
        failures.append(
            "second cold host rebuilt different pipeline output"
        )

    for name, fn in _experiments(config, fairness, args.quick):
        clear_default_cache()
        serial = _timed(fn, 1)
        cold_stats = default_cache().stats()

        default_cache().reset_stats()
        warm = _timed(fn, 1)
        warm_stats = default_cache().stats()

        parallel = _timed(fn, jobs)

        entry = {
            "serial_cold_seconds": round(serial, 3),
            "serial_warm_seconds": round(warm, 3),
            "parallel_seconds": round(parallel, 3),
            # Warm against warm: both legs reuse the same cache, so the
            # ratio is the workers' alone.  One CPU has none to measure.
            "parallel_speedup": (
                round(warm / parallel, 2)
                if parallel and report["cpu_count"] != 1
                else None
            ),
            "memoization_speedup": round(serial / warm, 2) if warm else None,
            "pipeline_cache": {
                "cold": cold_stats,
                "warm": warm_stats,
            },
        }
        report["experiments"][name] = entry
        print(
            f"{name:14s} serial {serial:6.2f}s   warm-cache {warm:6.2f}s "
            f"(x{entry['memoization_speedup']})   "
            f"parallel[{jobs}] {parallel:6.2f}s (x{entry['parallel_speedup']})   "
            f"warm hit rate {warm_stats['hit_rate']:.0%}"
        )
        if warm_stats["hit_rate"] != 1.0:
            failures.append(
                f"{name}: warm pipeline-cache hit rate "
                f"{warm_stats['hit_rate']:.0%} != 100%"
            )

    fig6_entry = report["experiments"].get("fig6")
    if fig6_entry is not None:
        # The warm serial leg runs the simulations against a fully
        # cached static pipeline, so it is the simulation time proper.
        report["fig6_sim_seconds"] = fig6_entry["serial_warm_seconds"]

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
