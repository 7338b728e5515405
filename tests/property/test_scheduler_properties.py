"""Property-based tests for the stock scheduler's placement and stealing.

``LinuxO1Scheduler._steal`` sorts only the non-empty donor queues, and
``pick_core`` takes the minimum over the mask directly.  Each must pick
exactly what the straightforward version kept here as the reference
picks: ``_steal`` the same process from the same donor, leaving the
same queues and steal count; ``pick_core`` the same core.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from repro.sim.machine import many_core_amp
from repro.sim.scheduler import LinuxO1Scheduler, pick_core

MACHINE = many_core_amp(8, 8)
CORES = tuple(core.cid for core in MACHINE.cores)


@dataclass(frozen=True)
class _Proc:
    """The two fields stealing and placement read."""

    pid: int
    affinity: frozenset


def _steal_sort_all(sched: LinuxO1Scheduler, thief: int):
    """Reference ``_steal``: sort every other core, stop at the first
    empty queue."""
    donors = sorted(
        (cid for cid in sched._queues if cid != thief),
        key=lambda cid: -len(sched._queues[cid]),
    )
    for donor in donors:
        queue = sched._queues[donor]
        if not queue:
            break
        for i in range(len(queue) - 1, -1, -1):
            proc = queue[i]
            if thief in proc.affinity:
                del queue[i]
                sched.steals += 1
                return proc
    return None


def _pick_core_sorted(mask, load, prefer=None):
    """Reference ``pick_core``: the minimum over the sorted mask."""
    best = min(sorted(mask), key=lambda cid: (load.get(cid, 0), cid))
    if prefer is not None and prefer in mask:
        if load.get(prefer, 0) <= load.get(best, 0):
            return prefer
    return best


masks = st.frozensets(st.sampled_from(CORES), min_size=1)

# Per core: a queue of affinity masks, mostly short and often empty, so
# ties between donor lengths and all-empty machines both occur.
queue_layouts = st.lists(
    st.lists(masks, max_size=4), min_size=len(CORES), max_size=len(CORES)
)


def _scheduler(layout) -> LinuxO1Scheduler:
    sched = LinuxO1Scheduler()
    sched.attach(MACHINE, lambda core_id, now: None)
    pid = 0
    for cid, queue_masks in zip(CORES, layout):
        for mask in queue_masks:
            sched._queues[cid].append(_Proc(pid, mask))
            pid += 1
    return sched


def _queues(sched: LinuxO1Scheduler) -> dict:
    return {cid: [p.pid for p in queue] for cid, queue in sched._queues.items()}


@settings(max_examples=150, deadline=None)
@given(layout=queue_layouts, thief=st.sampled_from(CORES))
def test_steal_matches_sort_all_reference(layout, thief):
    sched = _scheduler(layout)
    reference = _scheduler(layout)
    stolen = sched._steal(thief)
    expected = _steal_sort_all(reference, thief)
    assert stolen == expected
    assert _queues(sched) == _queues(reference)
    assert sched.steals == reference.steals


@settings(max_examples=300, deadline=None)
@given(
    mask=masks,
    load=st.dictionaries(
        st.sampled_from(CORES), st.integers(min_value=0, max_value=3)
    ),
    prefer=st.none() | st.sampled_from(CORES),
)
def test_pick_core_matches_sorted_reference(mask, load, prefer):
    assert pick_core(mask, load, prefer) == _pick_core_sorted(mask, load, prefer)


@settings(max_examples=100, deadline=None)
@given(
    lengths=st.lists(
        st.integers(min_value=0, max_value=5),
        min_size=len(CORES),
        max_size=len(CORES),
    ),
    thief=st.sampled_from(CORES),
)
def test_repeated_steals_follow_the_old_donor_order(lengths, thief):
    """Every queued process may run on the thief, so each steal takes
    from the first donor in the reference's order — busiest first, ties
    in machine order — and stealing until nothing is left replays that
    order as the queue lengths change."""
    layout = [[frozenset(CORES)] * n for n in lengths]
    sched = _scheduler(layout)
    reference = _scheduler(layout)
    while True:
        stolen = sched._steal(thief)
        assert stolen == _steal_sort_all(reference, thief)
        assert _queues(sched) == _queues(reference)
        if stolen is None:
            break
    assert sched.steals == reference.steals == sum(lengths) - lengths[thief]
