"""In-memory span tracer for the benchmark's traced runs.

Tracing wraps the public entry points of each layer from outside the
program.  A module-level function is replaced in every loaded ``repro``
module that binds it, because the experiment modules import names
directly (``table2.run_tasks`` is the same object as
``harness.run_tasks``).  A method is replaced on its class.  Nothing is
installed for an untraced run, so the end-to-end numbers carry no
tracing cost.

A span is ``(id, parent, layer, name, start, end)`` on the host's
monotonic clock, which forked workers share with the parent.  Span ids
are ``(pid, n)``, so spans recorded in pool and broker workers stay
unique when the task wrapper ships them back to the parent.  A layer's
self time is its spans' durations minus the part of each interval that
child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import pickle
import resource
import sys
import time
from collections import Counter, defaultdict

#: Pipeline cache level -> static-pipeline stage it builds.
STAGE_OF_LEVEL = {
    "typing": "typing",
    "transitions": "transitions",
    "instrumented": "instrument",
    "tuned": "tracegen",
    "baseline-trace": "tracegen",
}

LAYERS = ("pipeline", "store", "executor", "opensys", "harness", "experiments")


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self) -> None:
        self.stack: list = []
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self._seq = itertools.count()
        self.spans: list = []
        self.counts: Counter = Counter()
        self.built_keys: set = set()
        self.task_rss_kb = 0  # peak RSS of the processes that ran tasks

    def begin(self) -> tuple:
        sid = (self.pid, next(self._seq))
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent, time.perf_counter()

    def end(self, opened: tuple, layer: str, name: str) -> None:
        sid, parent, start = opened
        self.spans.append(
            (sid, parent, layer, name, start, time.perf_counter())
        )
        self.stack.pop()

    def drain(self) -> tuple:
        """Everything recorded since the last drain, as picklable data:
        ``(spans, counts, built_keys, task_rss_kb)``."""
        shipped = (self.spans, dict(self.counts), self.built_keys, self.task_rss_kb)
        self.spans, self.counts, self.built_keys = [], Counter(), set()
        self.task_rss_kb = 0
        return shipped

    def absorb(self, shipped: tuple) -> None:
        spans, counts, built_keys, task_rss_kb = shipped
        self.spans.extend(spans)
        self.counts.update(counts)
        self.built_keys |= built_keys
        self.task_rss_kb = max(self.task_rss_kb, task_rss_kb)


TRACER = Tracer()
# A forked worker starts with an empty buffer; it keeps the inherited
# stack, so spans it opens outside any task (broker claims) hang under
# the parent span that was open at fork time.
os.register_at_fork(after_in_child=TRACER._reset)


def _wrap(fn, layer: str, name: str, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        opened = TRACER.begin()
        try:
            result = fn(*args, **kwargs)
        finally:
            TRACER.end(opened, layer, name)
        if after is not None:
            after(TRACER.counts, args, result)
        return result

    return wrapper


class Installation:
    """The wrappers of one traced phase; :meth:`remove` restores every
    original binding."""

    def __init__(self) -> None:
        self._undo: list = []

    def bind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def bind_everywhere(self, module, attr: str, value) -> None:
        """Bind *value* wherever a ``repro`` module binds ``module.attr``."""
        original = getattr(module, attr)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, bound in list(vars(mod).items()):
                if bound is original:
                    self.bind(mod, key, value)

    def method(self, cls, attr: str, layer: str, after=None) -> None:
        name = f"{cls.__name__}.{attr}"
        self.bind(cls, attr, _wrap(getattr(cls, attr), layer, name, after))

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# -- layer-specific wrappers --------------------------------------------------


def _count_simulation(counts, args, result) -> None:
    counts["executor.runs"] += 1
    counts["executor.instructions"] += sum(result.throughput_buckets.values())
    counts["executor.switches"] += result.total_switches()
    counts["executor.migrations"] += sum(
        p.stats.migrations for p in result.all_processes
    )
    counts["executor.completed"] += len(result.completed)


def _count_open_system(counts, args, result) -> None:
    counts["opensys.arrivals"] += result.arrived
    counts["opensys.cancelled"] += result.cancelled


def _count_put(counts, args, result) -> None:
    counts["store.puts"] += 1
    counts["store.put_bytes"] += len(args[1])


def _count(name: str):
    def after(counts, args, result) -> None:
        counts[name] += 1

    return after


def _traced_get_or_build(original):
    """Pipeline lookups, classified hit / disk hit / miss from the
    cache's own counters, with each build timed as a stage span."""

    @functools.wraps(original)
    def get_or_build(self, key, build):
        stage = STAGE_OF_LEVEL.get(key[0], key[0])

        def timed_build():
            opened = TRACER.begin()
            try:
                return build()
            finally:
                TRACER.end(opened, "pipeline", f"build:{stage}")
                TRACER.counts["pipeline.builds"] += 1
                TRACER.built_keys.add(
                    hashlib.sha1(repr(key).encode("utf-8")).hexdigest()
                )

        misses, disk_hits = self.misses, self.disk_hits
        opened = TRACER.begin()
        try:
            return original(self, key, timed_build)
        finally:
            TRACER.end(opened, "pipeline", "lookup")
            counts = TRACER.counts
            if self.misses > misses:
                counts["pipeline.misses"] += 1
            else:
                counts["pipeline.hits"] += 1
                if self.disk_hits > disk_hits:
                    counts["pipeline.disk_hits"] += 1

    return get_or_build


def run_task(fn, parent, task):
    """Task wrapper for traced sweeps: runs *fn* under the parent's
    ``run_tasks`` span and returns ``(value, shipped)``, where
    *shipped* holds every span and count this process recorded since
    its last task.  In a worker that includes what ran between tasks,
    such as broker claims."""
    saved = TRACER.stack
    TRACER.stack = [parent]
    try:
        opened = TRACER.begin()
        started = time.perf_counter()
        try:
            value = fn(task)
        finally:
            TRACER.counts["harness.task_s"] += time.perf_counter() - started
            TRACER.counts["harness.tasks"] += 1
            TRACER.end(opened, "harness", "task")
        if TRACER.pid != parent[0]:
            # Only a worker's result crosses a process boundary.
            TRACER.counts["harness.result_bytes"] += len(
                pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            )
    finally:
        TRACER.stack = saved
    TRACER.task_rss_kb = max(
        TRACER.task_rss_kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    )
    return value, TRACER.drain()


def _traced_run_tasks(original, worker_count):
    @functools.wraps(original)
    def run_tasks(fn, tasks, *args, **kwargs):
        tasks = list(tasks)
        jobs = kwargs.get("jobs", args[0] if args else None)
        workers = max(1, min(worker_count(jobs), len(tasks)))
        opened = TRACER.begin()
        started = time.perf_counter()
        try:
            wrapped = original(
                functools.partial(run_task, fn, opened[0]), tasks, *args, **kwargs
            )
        except BaseException:
            TRACER.counts["harness.failed"] += 1
            raise
        finally:
            elapsed = time.perf_counter() - started
            TRACER.counts["harness.run_tasks_s"] += elapsed
            TRACER.counts["harness.worker_s"] += workers * elapsed
            TRACER.end(opened, "harness", "run_tasks")
        results = []
        for value, shipped in wrapped:
            TRACER.absorb(shipped)
            results.append(value)
        return results

    return run_tasks


def install() -> Installation:
    """Wrap every layer's entry points; returns the installation."""
    from repro.experiments import fig8, harness, runner, table2
    from repro.experiments.broker import Broker
    from repro.sim.executor import Simulation
    from repro.sim.opensys import OpenSystemRun
    from repro.store import LocalStore
    from repro.tuning.pipeline import PipelineCache

    inst = Installation()
    inst.bind(
        PipelineCache, "get_or_build", _traced_get_or_build(PipelineCache.get_or_build)
    )
    inst.method(LocalStore, "put", "store", _count_put)
    inst.method(LocalStore, "get", "store", _count("store.gets"))
    inst.method(LocalStore, "ref_mtimes", "store", _count("store.ref_scans"))
    inst.method(LocalStore, "delete", "store", _count("store.evicted"))
    for attr in ("has", "set_ref", "get_ref", "delete_ref", "refs", "object_size"):
        inst.method(LocalStore, attr, "store")
    inst.method(Simulation, "run", "executor", _count_simulation)
    inst.method(OpenSystemRun, "__init__", "opensys")
    inst.method(OpenSystemRun, "run", "opensys", _count_open_system)
    inst.method(Broker, "claim", "harness", _count("harness.broker.claims"))
    inst.bind_everywhere(
        harness, "run_tasks", _traced_run_tasks(harness.run_tasks, harness.worker_count)
    )
    # The experiment glue's entry points; what runs under them and in no
    # other layer (runner, workloads, metrics, report) is its self time.
    for module, attr in (
        (table2, "run"),
        (table2, "format_result"),
        (fig8, "run"),
        (fig8, "format_result"),
        (runner, "run_technique_point"),
    ):
        original = getattr(module, attr)
        name = f"{module.__name__}.{attr}"
        inst.bind_everywhere(module, attr, _wrap(original, "experiments", name))
    return inst


# -- analysis -----------------------------------------------------------------


def _union_length(intervals) -> float:
    total = 0.0
    end = -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans) -> list:
    """``(layer, name, self seconds)`` for every span."""
    children = defaultdict(list)
    for sid, parent, _layer, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for sid, _parent, layer, name, start, end in spans:
        covered = _union_length(
            (max(lo, start), min(hi, end))
            for lo, hi in children.get(sid, ())
            if hi > start and lo < end
        )
        out.append((layer, name, (end - start) - covered))
    return out


def covered_seconds(spans, start: float, end: float) -> float:
    """Seconds of ``[start, end]`` during which any span was open in
    any process."""
    return _union_length(
        (max(lo, start), min(hi, end))
        for _sid, _parent, _layer, _name, lo, hi in spans
        if hi > start and lo < end
    )


def layer_seconds(spans) -> dict:
    """Self seconds per layer, summed over processes."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for layer, _name, seconds in self_times(spans):
        totals[layer] = totals.get(layer, 0.0) + seconds
    return totals


def pass_metrics(
    spans, counts, built_keys, task_rss_kb, wall: float, window: tuple
) -> dict:
    """Per-layer metrics of one traced pass of *wall* seconds."""
    counts = Counter(counts)
    # Store operations nest (a ref scan lists the refs), so they are
    # timed inclusively.
    store_ops = defaultdict(float)
    for _sid, _parent, layer, name, start, end in spans:
        if layer == "store":
            store_ops[name] += end - start
    by_name = defaultdict(float)
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for layer, name, seconds in self_times(spans):
        by_name[(layer, name)] += seconds
        by_layer[layer] += seconds
    stages = defaultdict(float)
    for (layer, name), seconds in by_name.items():
        if name.startswith("build:"):
            stages[name[len("build:"):]] += seconds
    lookups = counts["pipeline.hits"] + counts["pipeline.misses"]
    builds = counts["pipeline.builds"]
    instructions = counts["executor.instructions"]
    executor_s = by_layer["executor"]
    covered = covered_seconds(spans, *window)
    return {
        "pipeline.hits": counts["pipeline.hits"],
        "pipeline.misses": counts["pipeline.misses"],
        "pipeline.disk_hits": counts["pipeline.disk_hits"],
        "pipeline.hit_ratio": counts["pipeline.hits"] / lookups if lookups else 0.0,
        "pipeline.build_s": sum(stages.values()),
        "pipeline.typing_s": stages["typing"],
        "pipeline.transitions_s": stages["transitions"],
        "pipeline.instrument_s": stages["instrument"],
        "pipeline.tracegen_s": stages["tracegen"],
        "pipeline.lookup_s": by_name[("pipeline", "lookup")],
        "pipeline.useful_build_ratio": len(built_keys) / builds if builds else 0.0,
        "store.puts": counts["store.puts"],
        "store.put_bytes": counts["store.put_bytes"],
        "store.put_s": store_ops["LocalStore.put"],
        "store.gets": counts["store.gets"],
        "store.get_s": store_ops["LocalStore.get"],
        "store.ref_scans": counts["store.ref_scans"],
        "store.ref_scan_s": store_ops["LocalStore.ref_mtimes"],
        "store.evicted": counts["store.evicted"],
        "store.self_s": by_layer["store"],
        "executor.runs": counts["executor.runs"],
        "executor.run_s": executor_s,
        "executor.sim_minstr": instructions / 1e6,
        "executor.host_ns_per_instr": (
            executor_s * 1e9 / instructions if instructions else 0.0
        ),
        "executor.switches": counts["executor.switches"],
        "executor.migrations": counts["executor.migrations"],
        "executor.completed": counts["executor.completed"],
        "opensys.self_s": by_layer["opensys"],
        "opensys.arrivals": counts["opensys.arrivals"],
        "opensys.cancelled": counts["opensys.cancelled"],
        "harness.tasks": counts["harness.tasks"],
        "harness.run_tasks_s": counts["harness.run_tasks_s"],
        "harness.task_s": counts["harness.task_s"],
        "harness.busy_ratio": (
            counts["harness.task_s"] / counts["harness.worker_s"]
            if counts["harness.worker_s"]
            else 0.0
        ),
        "harness.overhead_s": by_layer["harness"],
        "harness.result_bytes": counts["harness.result_bytes"],
        "harness.failed": counts["harness.failed"],
        "harness.worker_peak_rss_mb": task_rss_kb / 1024.0,
        "experiments.self_s": by_layer["experiments"],
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - covered,
        "trace.attributed_ratio": covered / wall if wall else 0.0,
    }
