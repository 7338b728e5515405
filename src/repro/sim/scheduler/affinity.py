"""The process-affinity API ("the standard process affinity API
available for Linux, kernel ver. >= 2.5").

Phase marks change where a process may run by shrinking or moving its
affinity mask; the scheduler honours the mask at every placement
decision.  A core switch costs :data:`MIGRATION_CYCLES` cycles — the
paper measured "approximately 1000 cycles" per switch with an
alternating-cores microbenchmark.
"""

from __future__ import annotations

from repro.errors import SchedulingError

#: Cycles one core switch costs (cache refill + kernel migration path).
MIGRATION_CYCLES = 1000.0


def validate_affinity(mask: frozenset, n_cores: int) -> frozenset:
    """Check an affinity mask.

    Raises:
        SchedulingError: if the mask is empty or names unknown cores.
    """
    if not mask:
        raise SchedulingError("affinity mask excludes every core")
    bad = [cid for cid in mask if not 0 <= cid < n_cores]
    if bad:
        raise SchedulingError(f"affinity names unknown cores {sorted(bad)}")
    return frozenset(mask)


def pick_core(mask: frozenset, load: dict, prefer: int = None) -> int:
    """Pick the least-loaded allowed core (ties: lowest id).

    Args:
        mask: allowed core ids.
        load: current queue length per core id.
        prefer: return this core if allowed and not busier than the best
            alternative (cheap cache-affinity heuristic).
    """
    best = min(mask, key=lambda cid: (load.get(cid, 0), cid))
    if prefer is not None and prefer in mask:
        if load.get(prefer, 0) <= load.get(best, 0):
            return prefer
    return best
