"""Exception hierarchy for the phase-based tuning library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
still distinguishing the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class AssemblyError(ReproError):
    """Raised when textual assembly cannot be parsed or encoded."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ProgramStructureError(ReproError):
    """Raised when a program representation violates a structural invariant.

    Examples: a branch targeting a label that does not exist, a basic block
    with a jump in its interior, or a CFG edge pointing outside the graph.
    """


class AnalysisError(ReproError):
    """Raised when a static analysis is given inputs it cannot handle."""


class InstrumentationError(ReproError):
    """Raised when binary rewriting cannot place a phase mark safely."""


class SimulationError(ReproError):
    """Raised when the AMP simulator reaches an inconsistent state."""


class SchedulingError(SimulationError):
    """Raised by schedulers, e.g. an affinity mask excluding every core."""


class AffinitySyscallError(SchedulingError):
    """An injected ``sched_setaffinity`` failure (EPERM/EINVAL-style).

    Raised by the fault injector when an affinity syscall is chosen to
    fail; the executor catches it, leaves the mask unchanged, and
    notifies the runtime so it can degrade gracefully.
    """

    def __init__(self, errno_name: str, pid: int | None = None):
        self.errno_name = errno_name
        self.pid = pid
        suffix = f" (pid {pid})" if pid is not None else ""
        super().__init__(f"sched_setaffinity failed with {errno_name}{suffix}")


class CounterError(SimulationError):
    """Raised by the performance-counter subsystem for invalid usage."""


class FaultError(SimulationError):
    """Raised when a fault-injection plan is malformed (bad rates, core
    ids out of range, negative event times)."""


class StoreError(ReproError):
    """Raised by :mod:`repro.store` for invalid usage (malformed digests
    or ref names).  A missing object is never an error — it is a miss —
    so a run can always fall back to local compute."""


class StoreCorruptionError(StoreError):
    """An object read from a store directory failed its digest
    verification.  The store quarantines the damaged file before
    raising; readers treat it as a miss and recompute."""


class CacheCorruptionError(ReproError):
    """Raised when a :class:`~repro.tuning.pipeline.PipelineCache`
    integrity check finds an entry whose stored key digest no longer
    matches its key."""


class TelemetryError(ReproError):
    """Raised by :mod:`repro.telemetry` for invalid configuration or a
    trace that fails schema validation."""


class WorkloadError(ReproError):
    """Raised when a workload specification is invalid (e.g. empty queue)."""


class MetricsError(ReproError):
    """Raised by :mod:`repro.metrics` on invalid samples or queries
    (negative latencies, out-of-range quantiles, unordered series)."""


class OpenSystemError(SimulationError):
    """Raised when an open-system plan is inconsistent (negative rates,
    bad class mixes, malformed breakdown windows)."""


class ExperimentError(ReproError):
    """Raised when an experiment configuration is inconsistent."""


class TaskTimeoutError(ExperimentError):
    """Raised when a harness task exceeds its per-task timeout and no
    retries remain."""


class BrokerError(ExperimentError):
    """Raised by :mod:`repro.experiments.broker` for invalid usage or a
    broker directory that cannot be opened/created (the harness catches
    this and degrades to a queue on its own host)."""


class LeaseLostError(BrokerError):
    """A worker's lease on a task expired and was reclaimed (or the task
    was completed by another worker) before the worker finished; raised
    by heartbeat renewal so the worker can abandon the attempt."""


class QuarantinedTaskError(BrokerError):
    """A task exhausted its attempt budget and sits in quarantine; raised
    when a caller needs the task's result and no rescue path remains."""
