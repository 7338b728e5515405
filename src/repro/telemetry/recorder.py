"""The Recorder protocol and its two implementations.

:class:`NullRecorder` is the default: ``enabled`` is ``False``, every
method is a no-op, and instrumented code is expected to gate on
``enabled`` (hot paths resolve the gate once, at construction) — so an
untraced run executes exactly the float operations it executed before
telemetry existed, and its outputs stay byte-identical.

:class:`TraceRecorder` collects typed events (spans, instants,
counters; see :mod:`repro.telemetry.events` for the tuple layout) plus
a flat metrics dict, grouped into *runs*: every simulation (and the
harness itself) opens its own run, which becomes its own ``pid`` track
group in the exported Chrome trace.  Runs carry a clock-domain tag
(``"sim"`` seconds or ``"wall"`` seconds) so the analyzer never mixes
simulated and real time.

Event streams are execution-mode invariant: the executor's batched
and stepped quantum paths emit the same per-turn ``quantum`` spans (and
``sched`` / ``exec`` instants), in the same order, with the same
timestamps — turning tracing on never changes which path runs, and
traces from either path diff clean.

Recorders are shipped across process boundaries the same way the
pipeline cache ships entries: :meth:`TraceRecorder.export_blob` on the
worker, :meth:`TraceRecorder.absorb_blob` on the parent (run ids are
re-based on absorb, so worker runs never collide with parent runs).
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path
from zlib import crc32

from repro.telemetry.events import DEFAULT_CATEGORIES
from repro.telemetry.export import chrome_event, run_meta_event

__all__ = ["NullRecorder", "Recorder", "TraceRecorder", "NULL_RECORDER"]


class Recorder:
    """Protocol base: the full recorder surface, as no-ops.

    Hook points call these methods; implementations override what they
    store.  ``enabled`` is an attribute (not a property) so hot paths
    pay one load to check it.
    """

    enabled: bool = False
    categories: frozenset = frozenset()

    def wants(self, cat: str) -> bool:
        """Whether events of category *cat* should be recorded."""
        return False

    def begin_run(self, label: str, clock: str = "sim") -> int:
        """Open a new run (track group); returns its id and makes it
        current."""
        return 0

    def instant(self, cat, name, ts, tid=0, args=None, run=None) -> None:
        """Record a point event."""

    def span(self, cat, name, ts, dur, tid=0, args=None, run=None) -> None:
        """Record a complete span of duration *dur* starting at *ts*."""

    def counter(self, cat, name, ts, value, tid=0, run=None) -> None:
        """Record one point of a counter series."""

    def meta(self, name, tid, args, run=None) -> None:
        """Record viewer metadata (e.g. lane names)."""

    def incr(self, name: str, delta: float = 1.0) -> None:
        """Bump a flat (timeline-free) metric."""


class NullRecorder(Recorder):
    """The zero-overhead default recorder: records nothing."""

    __slots__ = ()


#: Shared null instance — stateless, so one is enough.
NULL_RECORDER = NullRecorder()


class _StreamedEvents(list):
    """Event list that tees every append onto the recorder's JSONL
    stream, so events hit disk as they are recorded rather than only at
    final export."""

    __slots__ = ("_recorder",)

    def __init__(self, recorder):
        super().__init__()
        self._recorder = recorder

    def append(self, ev) -> None:
        list.append(self, ev)
        self._recorder._stream_event(ev)

    def extend(self, evs) -> None:
        for ev in evs:
            self.append(ev)


class _SampledEvents(_StreamedEvents):
    """Event list applying a deterministic per-event keep decision to
    sampled categories before storing (and streaming) the event.

    The filter lives on the list rather than in the ``instant``/
    ``span``/``counter`` methods because the hottest instrumentation
    sites (executor quantum spans, scheduler dispatch decisions) append
    raw event tuples directly — the container is the one choke point
    every event passes through.

    The keep decision is a pure function of the event's category, lane,
    and timestamp (hashed via CRC-32 with the recorder's sample seed,
    never Python's randomized ``hash``), so two runs of a
    deterministic simulation keep exactly the same subset, events
    sharing (category, lane, timestamp) keep or drop together, and
    re-appending an event — e.g. a worker blob absorbed into a parent
    recorder with the same sampling config — decides identically.
    """

    __slots__ = ("_thresholds", "_seed")

    def __init__(self, recorder, thresholds, seed):
        super().__init__(recorder)
        self._thresholds = thresholds
        self._seed = seed

    def append(self, ev) -> None:
        threshold = self._thresholds.get(ev[1])
        if threshold is not None:
            key = f"{self._seed}|{ev[1]}|{ev[5]}|{ev[4]!r}"
            # CRC-32 is linear over GF(2): two keys differing in one
            # byte hash to values a *constant* XOR apart, so without a
            # finalizer two seeds would keep nearly identical subsets.
            # The odd-multiplier mix (Fibonacci hashing) breaks the
            # linearity; it is still a pure function of the key.
            h = (crc32(key.encode()) * 0x9E3779B1) & 0xFFFFFFFF
            if (h ^ (h >> 16)) >= threshold:
                return
        list.append(self, ev)
        self._recorder._stream_event(ev)


class TraceRecorder(Recorder):
    """In-memory collector of typed events and flat metrics.

    Args:
        categories: categories to record; the cheap default set when
            omitted (see :mod:`repro.telemetry.events`).
        stream_to: optional path; every event is additionally appended
            to this file as one Chrome ``trace_event`` JSON object per
            line, flushed every *stream_flush_every* events.  A run
            killed mid-flight leaves at worst one torn final line,
            which :func:`~repro.telemetry.export.load_chrome_trace`
            drops under ``tolerant_tail=True`` — so the trace of a
            crashed run is recoverable up to the last flush.
        stream_flush_every: events between stream flushes.
        sample: optional ``{category: keep_rate}`` with rates in
            ``(0, 1]``; events of a sampled category are kept with a
            deterministic seeded-hash decision (see
            :class:`_SampledEvents`), so the high-volume categories
            (``quantum``, ``segment``) are no longer all-or-nothing on
            1000-process runs.  A rate of ``1.0`` keeps everything —
            byte-identical to not listing the category.  Sampling a
            category does not enable it: it must still be in
            *categories*.
        sample_seed: seed for the keep decision; the same seed keeps
            the same subset across runs.
    """

    enabled = True

    def __init__(
        self,
        categories=None,
        stream_to=None,
        stream_flush_every=256,
        sample=None,
        sample_seed=0,
    ):
        self.categories = (
            frozenset(categories) if categories is not None else DEFAULT_CATEGORIES
        )
        self.sample = dict(sample) if sample else None
        self.sample_seed = int(sample_seed)
        if self.sample is not None:
            from repro.errors import TelemetryError

            for cat, rate in self.sample.items():
                if not 0.0 < rate <= 1.0:
                    raise TelemetryError(
                        f"sample rate for {cat!r} must be in (0, 1], got {rate}"
                    )
        #: Flat event tuples: ``(ph, cat, name, run, ts, tid, value, args)``.
        self.events: list = []
        #: Flat metrics: name -> accumulated value.
        self.metrics: dict = {}
        #: Run registry: run id -> ``(label, clock)``.
        self.runs: dict = {}
        self._next_run = 0
        #: The current run id (events default here when ``run=None``).
        self.run = 0
        self._stream = None
        self._stream_pending = 0
        self._stream_flush_every = max(1, int(stream_flush_every))
        if stream_to is not None:
            path = Path(stream_to)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = open(path, "w", encoding="utf-8")
            self.events = _StreamedEvents(self)
        if self.sample is not None:
            # CRC-32 yields 32-bit values; a rate of 1.0 maps to 2**32,
            # which every hash is strictly below, i.e. keep-all.
            thresholds = {
                cat: int(rate * 2**32) for cat, rate in self.sample.items()
            }
            sampled = _SampledEvents(self, thresholds, self.sample_seed)
            sampled.extend(self.events)
            self.events = sampled

    # -- run management -----------------------------------------------------

    def wants(self, cat: str) -> bool:
        return cat in self.categories

    def begin_run(self, label: str, clock: str = "sim") -> int:
        run = self._next_run
        self._next_run = run + 1
        self.runs[run] = (label, clock)
        self.run = run
        if self._stream is not None:
            # Run starts are rare and name whole track groups: make
            # them durable immediately.
            self._write_stream_line(run_meta_event(run, label, clock))
            self.flush_stream()
        return run

    # -- event emission -----------------------------------------------------

    def instant(self, cat, name, ts, tid=0, args=None, run=None) -> None:
        self.events.append(
            ("I", cat, name, self.run if run is None else run, ts, tid, None, args)
        )

    def span(self, cat, name, ts, dur, tid=0, args=None, run=None) -> None:
        self.events.append(
            ("X", cat, name, self.run if run is None else run, ts, tid, dur, args)
        )

    def counter(self, cat, name, ts, value, tid=0, run=None) -> None:
        self.events.append(
            ("C", cat, name, self.run if run is None else run, ts, tid, value, None)
        )

    def meta(self, name, tid, args, run=None) -> None:
        self.events.append(
            ("M", None, name, self.run if run is None else run, 0.0, tid, None, args)
        )

    def incr(self, name: str, delta: float = 1.0) -> None:
        metrics = self.metrics
        metrics[name] = metrics.get(name, 0.0) + delta

    # -- streaming ----------------------------------------------------------

    def _stream_event(self, ev: tuple) -> None:
        if self._stream is not None:
            self._write_stream_line(chrome_event(ev))

    def _write_stream_line(self, obj: dict) -> None:
        # default=repr: args dicts may carry arbitrary objects; a trace
        # line must never be able to kill the run being traced.
        self._stream.write(json.dumps(obj, default=repr) + "\n")
        self._stream_pending += 1
        if self._stream_pending >= self._stream_flush_every:
            self.flush_stream()

    def flush_stream(self) -> None:
        """Push buffered stream lines to the OS."""
        if self._stream is not None:
            self._stream.flush()
            self._stream_pending = 0

    def close_stream(self) -> None:
        """Flush and close the JSONL stream (events keep collecting
        in memory)."""
        if self._stream is not None:
            self._stream.flush()
            self._stream.close()
            self._stream = None

    # -- shipping (harness workers) -----------------------------------------

    def export_blob(self) -> bytes:
        """Everything recorded, as one pickled blob for
        :meth:`absorb_blob` (``export_entries``-style shipping)."""
        # list(): never pickle the streaming subclass (it references
        # this recorder and its open file).
        return pickle.dumps(
            (self._next_run, self.runs, list(self.events), self.metrics),
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def absorb_blob(self, blob: bytes) -> int:
        """Merge a blob exported by another recorder (typically a
        harness worker); returns the number of events absorbed.

        Run ids from the blob are re-based past this recorder's own so
        worker runs stay distinct track groups.
        """
        n_runs, runs, events, metrics = pickle.loads(blob)
        offset = self._next_run
        self._next_run = offset + n_runs
        for run, info in runs.items():
            self.runs[run + offset] = info
            if self._stream is not None:
                label, clock = info
                self._write_stream_line(
                    run_meta_event(run + offset, label, clock)
                )
        if offset:
            self.events.extend(
                (ph, cat, name, run + offset, ts, tid, value, args)
                for ph, cat, name, run, ts, tid, value, args in events
            )
        else:
            self.events.extend(events)
        if self._stream is not None:
            # One absorbed blob is one completed task: flush so its
            # whole trace is durable at the task boundary.
            self.flush_stream()
        own = self.metrics
        for name, value in metrics.items():
            own[name] = own.get(name, 0.0) + value
        return len(events)

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def clear(self) -> None:
        self.events.clear()
        self.metrics.clear()
        self.runs.clear()
        self._next_run = 0
        self.run = 0
