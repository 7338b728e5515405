"""One-call convenience pipeline: analyze, instrument, trace — memoized.

:func:`tune_program` is the library's front door for single programs:
it types the blocks, computes transitions for a strategy, builds the
phase marks, and generates both the tuned and the baseline trace for a
machine — ready to hand to :class:`~repro.sim.executor.Simulation`.

Every product of the static pipeline is memoized in a
:class:`PipelineCache` under a *content key*: a structural fingerprint
of the program combined with fingerprints of the strategy, machine,
behaviour spec and (optional) typing.  Sweeps that vary only runtime
parameters — the IPC threshold δ, injected error, the scheduler — hit
the cache and reuse the instrumented program and traces instead of
re-running typing, transition analysis and trace generation per sweep
point.  All pipeline stages are deterministic pure functions of the key,
so cached and fresh results are interchangeable bit for bit.

Cache levels (each usable on its own):

====================  =========================================================
``typing``            :class:`BlockTyping` per (program, typer)
``transitions``       transition-point sets per (program, typing, strategy)
``instrumented``      :class:`InstrumentedProgram` per (program, typing,
                      strategy)
``baseline-trace``    mark-free trace + isolated seconds per (program,
                      machine, spec)
``tuned``             the full :class:`TunedBinary` per (program, strategy,
                      machine, spec, typing)
``run-trace``         what a scheduled job runs: tuned trace + isolated
                      seconds per (program, strategy, machine, spec,
                      typing)
====================  =========================================================

Beneath the levels, builds share what does not depend on the technique
(the cache's :class:`~repro.sim.tracegen.AnalysisMemo`, never an entry):
costs are computed once per program and traces once per mark placement.

* block cost vectors per (program, machine, memory model, block);
* scope cost totals per (program, cost model, resolved trip counts,
  default trip, recursion depth, scope);
* tuned traces per (program, machine, spec, mark placement), so
  techniques that place the same marks share one trace.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
import weakref
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional

from repro.errors import CacheCorruptionError, StoreCorruptionError
from repro.store import LocalStore
from repro.program.module import Program
from repro.analysis.annotate import annotate_program
from repro.analysis.block_typing import BlockTyping, StaticBlockTyper
from repro.instrument.marker import LoopStrategy, MarkingStrategy
from repro.instrument.rewriter import InstrumentedProgram, build_marks
from repro.sim.machine import MachineConfig, core2quad_amp
from repro.sim.process import Trace
from repro.sim.tracegen import AnalysisMemo, BehaviorSpec, TraceGenerator
from repro.telemetry.context import current_recorder


def _telemetry_incr(name: str) -> None:
    """Bump a flat cache metric on the process recorder.  A no-op (one
    attribute check) with the null recorder or the ``cache`` category
    deselected; cache operations are far off any hot path."""
    rec = current_recorder()
    if rec.enabled and rec.wants("cache"):
        rec.incr(name)

# -- content fingerprints -------------------------------------------------------


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


#: Fingerprints memoized per program object, weakly: a memo that held
#: programs would keep them, and every product keyed weakly on them,
#: alive after their last user dropped them.
_PROGRAM_FINGERPRINTS: "weakref.WeakKeyDictionary[Program, str]" = (
    weakref.WeakKeyDictionary()
)


def program_fingerprint(program: Program) -> str:
    """Structural hash of a program: procedures, labels, regions, entry.

    Memoized per program object (programs hash by identity, are treated
    as immutable once built, and the benchmark factory interns them),
    with the digest itself computed from content so distinct objects
    with identical structure share cache entries.
    """
    digest = _PROGRAM_FINGERPRINTS.get(program)
    if digest is None:
        digest = _PROGRAM_FINGERPRINTS[program] = _program_digest(program)
    return digest


def _program_digest(program: Program) -> str:
    h = hashlib.sha256()
    h.update(program.name.encode("utf-8"))
    h.update(program.entry.encode("utf-8"))
    for name in sorted(program.procedures):
        proc = program.procedures[name]
        h.update(name.encode("utf-8"))
        for instr in proc.code:
            h.update(repr(instr).encode("utf-8"))
        h.update(repr(sorted(proc.labels.items())).encode("utf-8"))
    for region_name in sorted(program.regions):
        region = program.regions[region_name]
        h.update(
            f"{region.name}:{region.size}:{region.hot_fraction}".encode("utf-8")
        )
    return h.hexdigest()


def strategy_fingerprint(strategy: MarkingStrategy) -> str:
    """Identity of a marking strategy, including non-name parameters."""
    return _digest(strategy.name, repr(strategy))


@lru_cache(maxsize=64)
def machine_fingerprint(machine: MachineConfig) -> str:
    """Structural hash of a machine's cores.  Memoized by value:
    machines are frozen, so equal machines share one digest."""
    cores = ";".join(
        f"{c.cid}:{c.ctype.name}:{c.ctype.freq_ghz}:{c.ctype.l1_kb}:"
        f"{c.ctype.l2_kb}:{c.l2_group}"
        for c in machine.cores
    )
    return _digest(machine.name, cores)


def spec_fingerprint(spec: Optional[BehaviorSpec]) -> str:
    if spec is None:
        return "default-spec"
    trips = sorted((str(k), float(v)) for k, v in spec.trip_counts.items())
    return _digest(
        repr(trips),
        f"{spec.default_trip}:{spec.recursion_depth}:"
        f"{spec.max_inline_depth}:{spec.segment_budget}",
    )


def typing_fingerprint(typing: Optional[BlockTyping]) -> str:
    if typing is None:
        return "default-typing"
    return _digest(str(typing.num_types), repr(sorted(typing.types.items())))


# -- the cache ------------------------------------------------------------------


def _key_digest(key: tuple) -> str:
    """Integrity digest of a cache key's full byte representation."""
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


#: Environment variable naming a disk directory for the default cache.
#: Set (e.g. by ``python -m repro.experiments --cache-dir``) before
#: worker processes start so spawned workers inherit the disk tier.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def _loads(blob: bytes):
    """``pickle.loads`` with the cyclic collector paused.

    Decoding an entry allocates thousands of containers (a tuned
    binary's program copy and CFGs), and those allocation bursts would
    otherwise trigger collections that walk the whole heap for garbage
    that cannot exist yet.
    """
    if not gc.isenabled():
        return pickle.loads(blob)
    gc.disable()
    try:
        return pickle.loads(blob)
    finally:
        gc.enable()


def _low_water(budget: Optional[int]) -> float:
    """Where disk eviction stops once *budget* is exceeded: 1/8 below
    it, so one eviction pass is paid back by ``budget // 8`` publishes.
    Budgets under 8 evict exactly to the budget."""
    return float("inf") if budget is None else budget - budget // 8


class PipelineCache:
    """Content-keyed memo for static-pipeline products.

    Everything stored here is a deterministic pure function of its key,
    so sharing entries across runs cannot change results — only skip
    recomputation.  Tracks hit/miss counts per level for the benchmark
    harness.

    Beside its entries the cache owns the *variant-invariant* analyses
    its builds share: block costs and cost vectors per (program,
    machine), scope cost totals per (program, machine, trip counts),
    liveness per procedure CFG, loops and scope DAGs per CFG, and one
    tuned trace per mark placement (an
    :class:`~repro.sim.tracegen.AnalysisMemo` plus a live-register
    memo).  They do not depend on the technique, so the stock trace and
    every Table 2 variant of a program compute them once.  They are not
    entries: never persisted, shipped or counted as hits or misses,
    keyed weakly on the CFG or program object, and dropped by
    :meth:`clear`.

    Every entry stores a sha256 digest of its key alongside the value;
    each hit re-hashes the lookup key and compares (detecting a cache
    whose entries were tampered with or damaged in transit — e.g. a
    pickled copy shipped to a worker).  A corrupt entry is evicted and
    rebuilt, or raised as :class:`~repro.errors.CacheCorruptionError`
    under ``strict=True``.

    With ``disk_dir`` set the cache gains a persistent tier: a
    content-addressed store (:class:`repro.store.LocalStore`) in that
    directory.  Only what callers ask for is persisted: the entry of an
    *outermost* lookup is published as an object (the pickled
    ``(key, value, key-digest)`` triple) behind a
    ``pipeline/{level}-{digest}`` ref — object first, then the ref,
    both atomically — while the levels its build looks up on the way
    (typing, transitions, instrumented, the baseline trace inside
    ``tuned``) stay in memory.  A rerun then hits the outermost key on
    disk and never looks the nested ones up.  A top-level lookup that
    hits memory for an entry built nested publishes it then, and a
    process publishes each key at most once: a disk hit or an existing
    ref counts as published.  Every memory miss, nested or not, falls
    back to the store copy before rebuilding.  Loads re-hash the object
    bytes *and* compare the full stored key against the lookup key, so
    a damaged or foreign entry is quarantined/evicted (or raised under
    ``strict``) exactly like a corrupt in-memory entry.  A pre-store
    directory of flat ``{level}-{digest}.pkl`` files is migrated into
    the CAS layout on attach.

    The persistent tier is bounded by ``max_disk_entries`` refs *and*
    ``max_disk_bytes`` object bytes; once a publish exceeds either,
    eviction drops oldest-ref-mtime first (name tie-break) down to a
    low-water mark 1/8 below each budget, and the evicted totals are
    reported in :meth:`stats`.

    Args:
        strict: raise on a detected corruption instead of silently
            rebuilding the entry.
        disk_dir: directory for the persistent tier (created if
            missing); ``None`` keeps the cache memory-only.
        max_disk_entries: cap on persisted entries (``None`` = no cap).
        max_disk_bytes: cap on summed object bytes (``None`` = no cap).
    """

    def __init__(
        self,
        strict: bool = False,
        disk_dir=None,
        max_disk_entries: int = 512,
        max_disk_bytes: Optional[int] = None,
    ) -> None:
        self._entries: dict = {}
        self._reset_analyses()
        self.strict = strict
        self.max_disk_entries = max_disk_entries
        self.max_disk_bytes = max_disk_bytes
        self._disk_dir: Optional[Path] = None
        self._store: Optional[LocalStore] = None
        #: Builds in progress on this cache: a lookup made while one
        #: runs is nested, and its build stays in memory only.
        self._depth = 0
        #: Keys this process has published, or found already published,
        #: so none is published twice.
        self._published: set = set()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.corruptions = 0
        self.evicted_entries = 0
        self.evicted_bytes = 0
        if disk_dir is not None:
            self.set_disk_dir(disk_dir)

    def _reset_analyses(self) -> None:
        #: Variant-invariant products shared by every build of this
        #: cache; see the class docstring.
        self.analysis = AnalysisMemo()
        #: CFG -> per-block live scratch registers, for build_marks.
        self.live_scratch: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary()
        )

    # -- disk tier ----------------------------------------------------------

    @property
    def disk_dir(self) -> Optional[Path]:
        return self._disk_dir

    @property
    def store(self) -> Optional[LocalStore]:
        """The persistent tier's CAS view (``None`` when memory-only)."""
        return self._store

    def set_disk_dir(self, disk_dir) -> None:
        """Enable (or move) the persistent tier; creates the directory
        and migrates any pre-store flat ``*.pkl`` layout into the CAS."""
        path = Path(disk_dir)
        path.mkdir(parents=True, exist_ok=True)
        self._disk_dir = path
        self._store = LocalStore(path)
        self._published.clear()
        self._migrate_legacy_layout()

    def _migrate_legacy_layout(self) -> None:
        """Republish flat ``{level}-{digest}.pkl`` files (the disk-tier
        layout before the shared store) as CAS objects + refs.

        Each file is verified before migration; entries that fail
        (damaged, foreign) are left in place and simply never served.
        """
        for stale in sorted(self._disk_dir.glob("*.pkl")):
            try:
                blob = stale.read_bytes()
                stored_key, value, digest = _loads(blob)
                if digest != _key_digest(stored_key):
                    continue
                obj = self._store.put(blob)
                self._store.set_ref(self._ref_name(stored_key), obj)
                stale.unlink()
            except Exception:
                continue

    def _ref_name(self, key: tuple) -> str:
        return f"pipeline/{key[0]}-{_key_digest(key)}"

    def _decode_entry(self, blob: bytes, key: tuple):
        """``(value,)`` if *blob* is a valid entry for *key*, else None."""
        try:
            stored_key, value, digest = _loads(blob)
            if digest == _key_digest(key) and stored_key == key:
                return (value,)
        except Exception:
            pass
        return None

    def _disk_load(self, key: tuple):
        """The local-store entry for *key*, or None.  Corrupt entries
        are quarantined/evicted (and raised under ``strict``)."""
        name = self._ref_name(key)
        digest = self._store.get_ref(name)
        if digest is None:
            return None
        corrupt = False
        try:
            blob = self._store.get(digest)
        except StoreCorruptionError:
            # The store already quarantined the damaged object.
            blob = None
            corrupt = True
        if blob is not None:
            entry = self._decode_entry(blob, key)
            if entry is not None:
                return entry
            # The object verified (its bytes match its digest) but is
            # not a valid entry for this key — a forged or foreign ref.
            self._store.delete(digest)
            corrupt = True
        self._store.delete_ref(name)
        if not corrupt:
            # Ref without its object (interrupted publish, external
            # gc): a plain miss, not a corruption.
            return None
        self.corruptions += 1
        if self.strict:
            raise CacheCorruptionError(
                f"disk cache entry {name} failed its integrity check"
            )
        return None

    def _disk_store(self, key: tuple, value) -> None:
        """Publish one entry into the local store, then enforce the
        entry/byte budgets.

        Write failures (read-only directory, unpicklable value, disk
        full) leave the disk tier stale but never fail the build.
        """
        try:
            blob = pickle.dumps(
                (key, value, _key_digest(key)), protocol=pickle.HIGHEST_PROTOCOL
            )
            digest = self._store.put(blob)
            self._store.set_ref(self._ref_name(key), digest)
        except (OSError, pickle.PicklingError, TypeError, AttributeError):
            return
        self._evict_disk_overflow()

    def _evict_disk_overflow(self) -> None:
        """Enforce the disk budgets after a publish.

        A names-only count decides whether the tier is over
        ``max_disk_entries``; only then does one stat pass order the
        refs, and the tier is evicted down to the low-water mark so the
        next ``cap // 8`` publishes need no pass at all.  The byte
        budget needs object sizes, so it reads every digest on each
        publish.
        """
        cap, budget = self.max_disk_entries, self.max_disk_bytes
        if cap is None and budget is None:
            return
        store = self._store
        try:
            if budget is None and store.count_refs("pipeline") <= cap:
                return
            # Oldest first, name tie-break: coarse filesystem timestamps
            # make same-mtime batches common, and directory order is
            # filesystem-dependent — sorting on mtime alone would evict
            # a nondeterministic subset.
            entries = store.ref_mtimes("pipeline")
        except OSError:
            return
        count = len(entries)
        sized = {}
        if budget is not None:
            for _, name in entries:
                digest = store.get_ref(name)
                if digest is not None:
                    sized[name] = (digest, store.object_size(digest))
        total = sum(size for _, size in sized.values())
        if not (
            (cap is not None and count > cap)
            or (budget is not None and total > budget)
        ):
            return
        count_goal, bytes_goal = _low_water(cap), _low_water(budget)
        for _, name in entries:
            if count <= count_goal and total <= bytes_goal:
                break
            count -= 1
            if budget is None:
                digest = store.get_ref(name)
            else:
                digest, size = sized.get(name, (None, 0))
                total -= size
            if digest is None:
                continue  # already gone: another process evicted it
            # Whoever unlinks the ref owns the eviction, so processes
            # sharing the tier never both count one victim.
            if store.delete_ref(name):
                self.evicted_entries += 1
                self.evicted_bytes += store.delete(digest)

    # -- lookup -------------------------------------------------------------

    def get_or_build(self, key: tuple, build: Callable):
        top = self._depth == 0
        entry = self._entries.get(key)
        if entry is not None:
            value, digest = entry
            if digest == _key_digest(key):
                self.hits += 1
                _telemetry_incr("cache.hit")
                if top and self._store is not None:
                    self._publish_on_demand(key, value)
                return value
            # The stored digest disagrees with the key that found the
            # entry: the entry (or its key) was corrupted after insert.
            self.corruptions += 1
            del self._entries[key]
            if self.strict:
                raise CacheCorruptionError(
                    f"pipeline cache entry for key {key[0]!r} failed its "
                    f"integrity check"
                )
        if self._disk_dir is not None:
            loaded = self._disk_load(key)
            if loaded is not None:
                value = loaded[0]
                self.hits += 1
                self.disk_hits += 1
                _telemetry_incr("cache.disk_hit")
                self._entries[key] = (value, _key_digest(key))
                return value
        self.misses += 1
        _telemetry_incr("cache.miss")
        self._depth += 1
        try:
            value = build()
        finally:
            self._depth -= 1
        self._entries[key] = (value, _key_digest(key))
        if top and self._disk_dir is not None:
            self._disk_store(key, value)
            self._published.add(key)
        return value

    def _publish_on_demand(self, key: tuple, value) -> None:
        """Publish an entry a top-level lookup found in memory, unless
        this process already published it or its ref already exists (a
        disk hit, or a forked or shipped cache holding entries the tier
        has)."""
        if key in self._published:
            return
        self._published.add(key)
        if self._store.get_ref(self._ref_name(key)) is None:
            self._disk_store(key, value)

    # -- shipping (spawn-started workers) -----------------------------------

    def export_entries(self) -> bytes:
        """All entries as one pickled blob for :meth:`install_entries`.

        Lets a harness ship a warm cache to workers whose start method
        does not inherit parent memory (spawn/forkserver).
        """
        return pickle.dumps(
            list(self._entries.items()), protocol=pickle.HIGHEST_PROTOCOL
        )

    def install_entries(self, blob: bytes) -> int:
        """Install entries exported elsewhere; returns how many were
        accepted.  Each entry's digest is re-verified against its key,
        so damage in transit is dropped (or raised under ``strict``)."""
        count = 0
        for key, (value, digest) in _loads(blob):
            if digest != _key_digest(key):
                self.corruptions += 1
                if self.strict:
                    raise CacheCorruptionError(
                        f"shipped cache entry for key {key[0]!r} failed "
                        f"its integrity check"
                    )
                continue
            self._entries[key] = (value, digest)
            count += 1
        return count

    def check_integrity(self) -> int:
        """Re-hash every entry's key; evict and count the corrupt ones.

        Returns the number of entries evicted.  Under ``strict=True``
        raises on the first corruption instead.
        """
        corrupt = [
            key
            for key, (value, digest) in self._entries.items()
            if digest != _key_digest(key)
        ]
        for key in corrupt:
            self.corruptions += 1
            del self._entries[key]
            if self.strict:
                raise CacheCorruptionError(
                    f"pipeline cache entry for key {key[0]!r} failed its "
                    f"integrity check"
                )
        return len(corrupt)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self._published.clear()
        self._reset_analyses()
        self.reset_stats()

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.corruptions = 0
        self.evicted_entries = 0
        self.evicted_bytes = 0

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
            "disk_hits": self.disk_hits,
            "corruptions": self.corruptions,
            "evicted_entries": self.evicted_entries,
            "evicted_bytes": self.evicted_bytes,
        }


#: Process-wide cache shared by default.  Worker processes of the
#: experiment harness each grow their own copy (or inherit the parent's
#: populated cache through fork).  A ``REPRO_CACHE_DIR`` environment
#: variable — inherited by spawned workers too — attaches the disk tier
#: from the start.
_DEFAULT_CACHE = PipelineCache(disk_dir=os.environ.get(CACHE_DIR_ENV) or None)


def default_cache() -> PipelineCache:
    """The process-wide pipeline cache."""
    return _DEFAULT_CACHE


def clear_default_cache() -> None:
    _DEFAULT_CACHE.clear()


# -- cached pipeline stages -----------------------------------------------------


def typed_blocks(
    program: Program,
    typer=None,
    cache: Optional[PipelineCache] = None,
) -> BlockTyping:
    """The (cached) block typing of *program* under *typer*."""
    if cache is None:
        cache = _DEFAULT_CACHE
    typer = typer or StaticBlockTyper()
    key = ("typing", program_fingerprint(program), repr(typer))
    return cache.get_or_build(key, lambda: typer.type_blocks(program))


def transition_points(
    aprog,
    strategy: MarkingStrategy,
    cache: Optional[PipelineCache] = None,
) -> list:
    """The (cached) transition-point set of one strategy on *aprog*.

    Transition points are pure data (procedure names, block indices,
    edges), so a set computed from one annotated instance is valid for
    any annotation of the same program + typing.
    """
    if cache is None:
        cache = _DEFAULT_CACHE
    key = (
        "transitions",
        program_fingerprint(aprog.program),
        typing_fingerprint(aprog.typing),
        strategy_fingerprint(strategy),
    )
    return cache.get_or_build(key, lambda: strategy.compute_points(aprog))


def instrument_cached(
    program: Program,
    strategy: MarkingStrategy,
    typing: Optional[BlockTyping] = None,
    cache: Optional[PipelineCache] = None,
) -> InstrumentedProgram:
    """Cached analogue of :func:`repro.instrument.rewriter.instrument`."""
    if cache is None:
        cache = _DEFAULT_CACHE
    key = (
        "instrumented",
        program_fingerprint(program),
        typing_fingerprint(typing),
        strategy_fingerprint(strategy),
    )

    def build() -> InstrumentedProgram:
        block_typing = (
            typing if typing is not None else typed_blocks(program, cache=cache)
        )
        aprog = annotate_program(program, block_typing)
        points = transition_points(aprog, strategy, cache=cache)
        marks = build_marks(aprog, points, cache.live_scratch)
        return InstrumentedProgram(program, aprog, strategy.name, marks)

    return cache.get_or_build(key, build)


def baseline_binary(
    program: Program,
    machine: Optional[MachineConfig] = None,
    spec: Optional[BehaviorSpec] = None,
    cache: Optional[PipelineCache] = None,
) -> tuple:
    """Cached ``(trace, isolated_seconds)`` of the uninstrumented program."""
    if cache is None:
        cache = _DEFAULT_CACHE
    machine = machine or core2quad_amp()
    key = (
        "baseline-trace",
        program_fingerprint(program),
        machine_fingerprint(machine),
        spec_fingerprint(spec),
    )

    def build() -> tuple:
        generator = TraceGenerator(machine, analysis=cache.analysis)
        trace = generator.generate(program, spec)
        return trace, generator.isolated_seconds(trace)

    return cache.get_or_build(key, build)


@dataclass
class TunedBinary:
    """Everything the pipeline produced for one program.

    Attributes:
        instrumented: the marked binary with overhead accounting.
        tuned_trace: trace with phase marks (run with a tuning runtime).
        baseline_trace: identical dynamics without marks (stock run).
        isolated_seconds: wall time of the baseline trace alone on the
            fastest core — the ``t_i`` used by the stretch metric.
    """

    instrumented: InstrumentedProgram
    tuned_trace: Trace
    baseline_trace: Trace
    isolated_seconds: float

    @property
    def space_overhead(self) -> float:
        return self.instrumented.space_overhead

    @property
    def mark_count(self) -> int:
        return len(self.instrumented.marks)


def tune_program(
    program: Program,
    strategy: Optional[MarkingStrategy] = None,
    machine: Optional[MachineConfig] = None,
    spec: Optional[BehaviorSpec] = None,
    typing: Optional[BlockTyping] = None,
    cache: Optional[PipelineCache] = None,
) -> TunedBinary:
    """Run the full static pipeline on *program* for *machine*.

    Callers that only schedule the program as a job want
    :func:`run_trace`: its cached product is the trace and isolated
    seconds alone, not the whole binary with its program copy.

    Args:
        strategy: defaults to the paper's best, ``Loop[45]``.
        machine: defaults to the paper's 4-core AMP.
        spec: behaviour parameters for trace generation.
        typing: pre-computed block typing (e.g. with injected error).
        cache: pipeline cache; the process-wide default when omitted.
            Pass a fresh :class:`PipelineCache` to isolate a run.
    """
    if cache is None:
        cache = _DEFAULT_CACHE
    strategy = strategy or LoopStrategy(45)
    machine = machine or core2quad_amp()
    key = (
        "tuned",
        program_fingerprint(program),
        strategy_fingerprint(strategy),
        machine_fingerprint(machine),
        spec_fingerprint(spec),
        typing_fingerprint(typing),
    )

    def build() -> TunedBinary:
        instrumented = instrument_cached(program, strategy, typing, cache=cache)
        tuned_trace = cache.analysis.tuned_trace(instrumented, machine, spec)
        baseline_trace, isolated = baseline_binary(
            program, machine, spec, cache=cache
        )
        return TunedBinary(instrumented, tuned_trace, baseline_trace, isolated)

    return cache.get_or_build(key, build)


def run_trace(
    program: Program,
    strategy: Optional[MarkingStrategy],
    machine: Optional[MachineConfig] = None,
    spec: Optional[BehaviorSpec] = None,
    typing: Optional[BlockTyping] = None,
    cache: Optional[PipelineCache] = None,
) -> tuple:
    """Cached ``(trace, isolated_seconds)`` a job of *program* runs.

    With a *strategy* this is the tuned trace of :func:`tune_program`.
    Its build looks that binary up nested, so a disk tier persists this
    pair and not the :class:`TunedBinary` behind it.  ``strategy=None``
    is the stock run: the :func:`baseline_binary` entry, which *typing*
    does not shape (it only places marks).
    """
    if cache is None:
        cache = _DEFAULT_CACHE
    machine = machine or core2quad_amp()
    if strategy is None:
        return baseline_binary(program, machine, spec, cache=cache)
    key = (
        "run-trace",
        program_fingerprint(program),
        strategy_fingerprint(strategy),
        machine_fingerprint(machine),
        spec_fingerprint(spec),
        typing_fingerprint(typing),
    )

    def build() -> tuple:
        tuned = tune_program(program, strategy, machine, spec, typing, cache)
        return tuned.tuned_trace, tuned.isolated_seconds

    return cache.get_or_build(key, build)
