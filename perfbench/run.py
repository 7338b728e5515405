"""The repository's benchmark: end-to-end and per-layer performance.

Run from the repository root::

    python3 perfbench/run.py --workload fairness-paper --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload sweep-rerun --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --verify --workload open-churn --seed 1

``BENCHMARK.json`` names the workloads and the metrics, with their units.
A run repeats the workload's timed part until ``--seconds`` of timed
work have passed, sets the workload up before each of the first few
passes, and reports medians.  Every pass hashes its simulated results;
the digests of all passes must agree, and must equal the digest pinned
in ``digests.json`` when the seed has one (seed 1 is the default; seed 7
is held out for checking claims).  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``failed`` counts passes whose check failed plus harness
tasks that were retried, rescued or lost a worker; ``failed_ratio`` is
printed above it.

``--trace 0`` reports the end-to-end metrics, measured with no tracing
installed.  A shared machine's CPU speed can shift by half for a minute
or more at a time, which medians over one run cannot average away.  So
for a workload whose timed part runs in this process alone, the times
are host seconds scaled to a reference host speed: a fixed pure-Python
loop is timed just before and just after each timed interval, and the
interval is divided by how much slower than ``REFERENCE_LOOP_S`` the
loop ran.  The loop cannot stand for work spread over pool workers, so
``sweep-rerun`` reports unscaled host seconds.  Both medians are
printed.  ``--trace 1`` reports the per-layer metrics: it traces one
set-up, then alternates untraced and traced passes (the ratio of their
medians is the tracing overhead), and reports the layers of the traced
pass with the median wall time.  Layer self times are summed over
processes, so with two pool workers they can add up to more than the
wall time; ``trace.unattributed_s`` is the wall time during which no
span was open in any process.  A per-layer metric that does not apply
to the workload reads 0; so does ``harness.parallel_speedup`` on a host
with one CPU.

``--verify`` re-runs each workload's simulations on the stepped,
batched and coalesced executor paths and requires one digest.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Executor paths for --verify: the environment kill-switches reach every
#: Simulation the workload builds, in this process and in forked workers.
EXECUTOR_MODES = (
    ("coalesced", {}),
    ("batched", {"REPRO_NO_COALESCE": "1"}),
    ("stepped", {"REPRO_NO_COALESCE": "1", "REPRO_NO_BATCH": "1"}),
)


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _reap_children(timeout: float = 30.0) -> None:
    """Wait until every worker process this run started has ended."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)


#: The reference loop's time at the reference host speed: roughly its
#: fastest time on a 2-vCPU x86-64 cloud VM under Python 3.11.
REFERENCE_LOOP_S = 0.005


def _slowdown() -> float:
    """How many times slower than the reference speed the host runs now:
    the median of five timings of a fixed loop, over REFERENCE_LOOP_S."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) / REFERENCE_LOOP_S


def _timed(fn) -> tuple:
    """``(seconds, reference seconds, value)`` of one call of *fn*."""
    gc.collect()
    before = _slowdown()
    start = time.perf_counter()
    value = fn()
    seconds = time.perf_counter() - start
    return seconds, seconds * 2.0 / (before + _slowdown()), value


def _peak_rss_mb() -> float:
    _reap_children()
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0


class Checker:
    """Compares pass digests with the run's reference digest."""

    def __init__(self, workload: str, seed: int) -> None:
        pinned = json.loads((HERE / "digests.json").read_text())["digests"]
        self.pinned = pinned.get(workload, {}).get(str(seed))
        self.reference = self.pinned
        self.problems: list = []
        self.failed = 0
        self.checked = 0

    def check(self, result, what: str) -> None:
        if result is None:
            return
        self.checked += 1
        if self.reference is None:
            self.reference = result.digest
        if result.digest != self.reference:
            self.failed += 1
            self.problems.append(f"{what}: digest {result.digest} != {self.reference}")


def _pass(workload, log, checker, label: str) -> tuple:
    """One timed pass: ``(seconds, reference seconds, PassResult)``."""
    workload.prepare_pass()
    timed = _timed(lambda: workload.run_pass(log))
    _reap_children()
    checker.check(timed[2], label)
    return timed


def _setup(workload, log, checker) -> tuple:
    """One set-up: ``(seconds, reference seconds, PassResult or None)``."""
    timed = _timed(lambda: workload.setup(log))
    _reap_children()
    checker.check(timed[2], "set-up")
    workload.after_setup()
    return timed


def _timed_work(passes) -> float:
    return sum(timed[0] for timed in passes)


def _traced(spans, fn) -> tuple:
    """Run *fn* with every layer traced: ``(start, end, value, shipped)``
    where *shipped* is what the tracer recorded meanwhile."""
    installed = spans.install()
    spans.TRACER.drain()
    gc.collect()
    try:
        start = time.perf_counter()
        value = fn()
        end = time.perf_counter()
    finally:
        installed.remove()
    _reap_children()
    return start, end, value, spans.TRACER.drain()


def measure_end_to_end(workload, log, checker, seconds: float) -> dict:
    # Set-ups are interleaved with the first passes rather than run back
    # to back, so their median samples the host over the whole run.
    setups, passes = [], []
    while not passes or _timed_work(passes) < seconds:
        if len(setups) < workload.setup_repeats:
            setups.append(_setup(workload, log, checker))
        passes.append(_pass(workload, log, checker, f"pass {len(passes) + 1}"))
    for column, what in ((0, "host"), (1, "reference-speed")):
        print(
            f"{what} seconds: wall {statistics.median(t[column] for t in passes):.4f}"
            f"  setup {statistics.median(t[column] for t in setups):.4f}"
        )
    print(f"{len(passes)} passes, {len(setups)} set-ups")
    column = 1 if workload.in_process else 0
    return {
        "wall_s": statistics.median(t[column] for t in passes),
        "setup_s": statistics.median(t[column] for t in setups),
        "sim_minstr_per_s": statistics.median(
            t[2].instructions / 1e6 / t[column] for t in passes
        ),
        "peak_rss_mb": _peak_rss_mb(),
    }


def measure_layers(workload, log, checker, seconds: float) -> dict:
    import spans

    metrics = {
        "host.cpu_count": _cpu_count(),
        "harness.parallel_speedup": 0.0,
        "harness.broker.claims": 0,
        "harness.broker.claim_s": 0.0,
    }
    if hasattr(workload, "warm_passes"):
        # Warm serial against warm two-worker on the same task list;
        # with one CPU there is no parallelism to measure.
        warm = workload.warm_passes(log, lambda fn: _timed(fn)[0])
        _reap_children()
        if metrics["host.cpu_count"] > 1:
            metrics["harness.parallel_speedup"] = warm["serial_s"] / warm["parallel_s"]
        *_, (recorded, counts, _, _) = _traced(spans, lambda: workload.broker_pass(log))
        metrics["harness.broker.claims"] = counts.get("harness.broker.claims", 0)
        metrics["harness.broker.claim_s"] = sum(
            s for _, name, s in spans.self_times(recorded) if name == "Broker.claim"
        )

    start, end, result, (recorded, *_) = _traced(spans, lambda: workload.setup(log))
    checker.check(result, "traced set-up")
    workload.after_setup()
    for layer, seconds_ in spans.layer_seconds(recorded).items():
        metrics[f"setup.{layer}_s"] = seconds_
    metrics["setup.unattributed_s"] = (end - start) - spans.covered_seconds(
        recorded, start, end
    )

    # Untraced and traced passes alternate, so host-speed drift lands on
    # both sides of the overhead ratio alike.
    untraced, traced = [], []
    while not traced or _timed_work(untraced) + _timed_work(traced) < seconds:
        untraced.append(_pass(workload, log, checker, f"untraced pass {len(untraced) + 1}"))
        workload.prepare_pass()
        start, end, result, shipped = _traced(spans, lambda: workload.run_pass(log))
        checker.check(result, f"traced pass {len(traced) + 1}")
        wall = end - start
        traced.append((wall, spans.pass_metrics(*shipped, wall, (start, end))))
    traced.sort(key=lambda t: t[0])
    metrics.update(traced[(len(traced) - 1) // 2][1])
    untraced_wall = statistics.median(t[0] for t in untraced)
    traced_wall = statistics.median(t[0] for t in traced)
    metrics["trace.overhead_pct"] = (traced_wall / untraced_wall - 1.0) * 100.0
    metrics["harness.retries"] = log.failures
    return metrics


def verify(names, seed: int, workdir: Path) -> int:
    """Same digest on every executor path, for each named workload."""
    from workloads import WORKLOADS, TaskLog

    ok = True
    for name in names:
        workload = WORKLOADS[name](seed, workdir)
        log = TaskLog()
        workload.setup(log)
        workload.after_setup()
        digests = {}
        for mode, env in EXECUTOR_MODES:
            saved = {key: os.environ.get(key) for key in env}
            os.environ.update(env)
            try:
                workload.prepare_pass()
                digests[mode] = workload.run_pass(log).digest
            finally:
                for key, value in saved.items():
                    if value is None:
                        os.environ.pop(key, None)
                    else:
                        os.environ[key] = value
            _reap_children()
            print(f"verify {name} seed {seed} {mode}: {digests[mode]}", flush=True)
        same = len(set(digests.values())) == 1
        ok = ok and same
        print(f"verify {name}: {'identical' if same else 'DIFFERENT'} on all executor paths")
    return 0 if ok else 1


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed work per run (default: run_seconds in BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--verify", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    if args.workload is None and not args.verify:
        print("--workload is required", file=sys.stderr)
        return 2
    # The program reads REPRO_* knobs (jobs, cache and store directories,
    # broker routing); a run must not inherit any.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from workloads import WORKLOADS, TaskLog
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(workdir)
    try:
        if args.verify:
            return verify([args.workload] if args.workload else names, args.seed, workdir)
        workload = WORKLOADS[args.workload](args.seed, workdir / "data")
        log = TaskLog()
        checker = Checker(args.workload, args.seed)
        if args.trace:
            values = measure_layers(workload, log, checker, seconds)
            wanted = spec["per_layer"]
        else:
            values = measure_end_to_end(workload, log, checker, seconds)
            wanted = spec["end_to_end"]
    finally:
        _reap_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted = checker.checked + log.tasks
    failed = checker.failed + log.failures
    print(f"workload {args.workload}  seed {args.seed}  cpu_count {_cpu_count()}")
    print(f"digest {checker.reference}" + ("  (pinned)" if checker.pinned else ""))
    for line in workload.report_lines():
        print(line)
    for problem in checker.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"failed_ratio {failed / attempted:.6f}  ({failed} of {attempted})")
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:32s} {values[name]:16.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": not checker.problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
