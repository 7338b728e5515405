"""Unit tests for the event queue."""

import heapq
import random

from repro.sim.events import EventQueue


def test_orders_by_time():
    q = EventQueue()
    q.push(3.0, "c")
    q.push(1.0, "a")
    q.push(2.0, "b")
    assert [q.pop()[1] for _ in range(3)] == ["a", "b", "c"]


def test_fifo_within_equal_times():
    q = EventQueue()
    for i in range(5):
        q.push(1.0, i)
    assert [q.pop()[1] for _ in range(5)] == [0, 1, 2, 3, 4]


def test_len():
    q = EventQueue()
    assert len(q) == 0
    q.push(2.5, "x")
    assert len(q) == 1
    q.pop()
    assert len(q) == 0


def test_heap_fast_path_matches_wrapper_order():
    """The executor reads ``_heap``/``_seq`` directly; the wrappers and
    the raw heap must agree on delivery order for the same pushes,
    including pushes made through the raw fast path itself."""
    times = [3.0, 1.0, 1.0, 2.0, 1.0, 3.0, 0.5, 2.0]

    wrapped = EventQueue()
    for i, t in enumerate(times):
        wrapped.push(t, i)
    via_wrapper = [wrapped.pop() for _ in range(len(times))]

    raw = EventQueue()
    for i, t in enumerate(times):
        # The run loop's inlined push: same tuple layout, same counter.
        heapq.heappush(raw._heap, (t, raw._seq, i))
        raw._seq += 1
    via_heap = []
    while raw._heap:
        t, _, payload = heapq.heappop(raw._heap)
        via_heap.append((t, payload))

    assert via_wrapper == via_heap
    assert [p for _, p in via_heap] == [6, 1, 2, 4, 3, 7, 0, 5]


def _deliver(seed: int, in_place: bool) -> list:
    """Deliver a random schedule the way the run loop does.

    Each delivered event, decided by its payload alone, pushes a few
    follow-ups (some at the same ``now``) and may reschedule itself once
    it has been handled, like a core's turn.  ``in_place`` peeks at the
    root, handles it and then replaces it (``heapreplace``) or pops it;
    otherwise the event is popped first and its reschedule pushed.
    """
    queue = EventQueue()
    heap = queue._heap
    start = random.Random(seed)
    for payload in range(start.randint(1, 6)):
        queue.push(start.choice([0.0, 0.0, 1.0, 2.5]), payload)
    next_payload = len(heap)
    delivered = []
    while heap and len(delivered) < 300:
        if in_place:
            now, _, payload = heap[0]
        else:
            now, _, payload = heapq.heappop(heap)
        delivered.append((now, payload))
        rng = random.Random(seed * 100_003 + payload)
        for _ in range(rng.randint(0, 2)):
            queue.push(now + rng.choice([0.0, 0.0, 0.5, 1.0]), next_payload)
            next_payload += 1
        if rng.random() < 0.6:
            entry = (now + rng.choice([0.0, 0.25, 1.0]), queue._seq, payload)
            queue._seq += 1
            if in_place:
                heapq.heapreplace(heap, entry)
            else:
                heapq.heappush(heap, entry)
        elif in_place:
            heapq.heappop(heap)
    return delivered


def test_in_place_replacement_matches_pop_then_push():
    """Every push made while an event is handled is keyed at a time >=
    its own with a later sequence number, so the handled event stays at
    the root until it is replaced: "peek, handle, heapreplace" delivers
    exactly what "pop, handle, push" does, same-time pushes included."""
    same_time = 0
    for seed in range(200):
        delivered = _deliver(seed, in_place=True)
        assert delivered == _deliver(seed, in_place=False)
        times = [t for t, _ in delivered]
        same_time += len(times) - len(set(times))
    assert same_time > 1000  # ties at one time really occurred
