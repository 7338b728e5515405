"""Typed trace events and their categories.

Events are stored as flat 8-tuples rather than objects — the recorder
sits on simulator hot paths, and a tuple append is the cheapest thing
CPython can do per event.  The layout is fixed::

    (ph, cat, name, run, ts, tid, value, args)

``ph`` is the Chrome ``trace_event`` phase letter ("X" complete span,
"I" instant, "C" counter, "M" metadata), ``cat`` the category string,
``run`` the run id (exported as the Chrome ``pid``, so every simulation
gets its own track group), ``ts`` the timestamp in the run's clock
domain (simulation seconds, or wall seconds for harness runs), ``tid``
the lane within the run, ``value`` the counter value or span duration,
and ``args`` an optional payload dict.

Lanes: core-level events (quantum spans, idle counters) use the core id
directly as ``tid``; process-level events offset the pid by
:data:`PROC_TID_BASE` so core lanes and process lanes never collide in
the viewer.

Categories
==========

=============  ==================================================  ========
category       events                                              default
=============  ==================================================  ========
``exec``       migrations, thrash switches, process start/end,     on
               per-core idle totals
``sched``      dispatch decisions: placements, steals, balance     on
               moves
``tuning``     IPC samples, Algorithm-2 core picks,                on
               degradation-ladder steps
``phase``      per-process phase-type transitions                  on
``fault``      injected fault applications/restores/skips          on
``cache``      pipeline-cache hit/miss metrics (no timeline)       on
``task``       harness task lifecycle (wall clock)                 on
``broker``     sweep-broker protocol: enqueue, claim, complete,    on
               fail, reclaim, quarantine, dedupe (wall clock)
``opensys``    open-system dynamics: arrivals, cancellations,      off
               breakdown/repair windows, jobs-in-system samples
``quantum``    one span per scheduling quantum                     off
``segment``    per-trace-step counters                             off
=============  ==================================================  ========

The off-by-default categories either cost too much for the <5% tracing
budget (a paper-scale run executes hundreds of thousands of quanta) or
only mean something for a specific run shape (``opensys`` events fire
only when an open-system engine drives the run; keeping the category
opt-in leaves every closed-run trace byte-identical to before it
existed).  Enable them explicitly (``REPRO_TRACE_CATEGORIES=all`` or
``...=exec,opensys``) when needed.

For the high-volume categories there is a second lever: deterministic
sampling.  ``TraceRecorder(sample={"quantum": 1/16})`` keeps a seeded
hash-chosen subset of a category's events instead of all or none —
see :class:`~repro.telemetry.recorder.TraceRecorder`.
"""

from __future__ import annotations

#: Offset added to a process pid to form its event lane, keeping
#: process lanes clear of core-id lanes in the trace viewer.
PROC_TID_BASE = 1000

#: Categories recorded by default: the decision-level timeline, cheap
#: enough that full-scale runs stay within the tracing overhead budget.
DEFAULT_CATEGORIES = frozenset(
    {"exec", "sched", "tuning", "phase", "fault", "cache", "task", "broker"}
)

#: Every category, including the high-volume per-quantum/per-step ones
#: and the open-system dynamics timeline.
ALL_CATEGORIES = DEFAULT_CATEGORIES | {"quantum", "segment", "opensys"}


def parse_categories(text: str) -> frozenset:
    """Parse a ``REPRO_TRACE_CATEGORIES``-style comma list.

    ``"all"`` selects every category, ``"default"`` (or an empty
    string) the default set; otherwise the comma-separated names are
    validated against :data:`ALL_CATEGORIES`.
    """
    from repro.errors import TelemetryError

    text = (text or "").strip().lower()
    if not text or text == "default":
        return DEFAULT_CATEGORIES
    if text == "all":
        return frozenset(ALL_CATEGORIES)
    names = frozenset(part.strip() for part in text.split(",") if part.strip())
    unknown = names - ALL_CATEGORIES
    if unknown:
        raise TelemetryError(
            f"unknown trace categories {sorted(unknown)}; "
            f"choose from {sorted(ALL_CATEGORIES)}"
        )
    return names
