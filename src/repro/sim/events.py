"""A tiny deterministic discrete-event queue.

Events at equal times are delivered in insertion order (a monotonically
increasing sequence number breaks ties), which keeps whole simulations
bit-for-bit reproducible.

The executor's run loop reads ``_heap``/``_seq`` directly (one heap
operation per scheduling quantum); the ``push``/``pop`` wrappers are the
public API for everything that runs off the hot path.  Both views see
the same ``(time, seq, payload)`` tuples, so their ordering is
identical by construction — a regression test pins this.

A core's turn does not pop its event first.  The loop peeks at the root,
runs the turn, and then replaces the root with the core's next turn in
one ``heapreplace`` (or pops it, when the core goes idle).  Every event
pushed during the turn is at a time no earlier than the turn's own,
with a later sequence number, so it sorts after the turn's entry and
cannot displace the root.  The keys are unique, so "peek, handle,
replace" delivers exactly the order that "pop, handle, push" does; a
property test over random schedules, same-time pushes included, pins
that too.
"""

from __future__ import annotations

import heapq
from typing import Any


class EventQueue:
    """Priority queue of (time, payload) events."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0

    def push(self, time: float, payload: Any) -> None:
        heapq.heappush(self._heap, (time, self._seq, payload))
        self._seq += 1

    def pop(self) -> tuple:
        """Pop the earliest event as (time, payload)."""
        time, _, payload = heapq.heappop(self._heap)
        return time, payload

    def __len__(self) -> int:
        return len(self._heap)
