"""k-means clustering (MacQueen), implemented from scratch.

The paper cites MacQueen's 1967 k-means for grouping blocks in the 2-D
feature space.  This implementation is deliberately small and fully
deterministic: k-means++ seeding driven by an explicit ``random.Random``,
Lloyd iterations to convergence, and empty clusters re-seeded from the
point farthest from its centroid.

It is plain Python over a few dozen points per program.  It performs
the same IEEE-754 operations in the same order as the array
formulation it replaced, so for finite coordinates labels, centroids
and inertia are bit-identical to it.  Per-point distances and the
means of clusters in two or more dimensions add sequentially from
0.0.  Whole-vector totals (the k-means++ seeding mass, the inertia and
the means of 1-D clusters) use :func:`pairwise_sum`: blocked pairwise
summation with eight strided accumulators per block of 128, the
rounding of an array library's vector ``sum``.
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass

from repro.errors import AnalysisError

#: Vectors up to this length are summed with eight strided accumulators;
#: longer ones are split in two.
_PAIRWISE_BLOCK = 128


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of a k-means run.

    Attributes:
        labels: cluster index of each input point, in input order.
        centroids: one ``dims``-tuple of floats per cluster.
        inertia: sum of squared distances of points to their centroids.
        iterations: Lloyd iterations executed.
    """

    labels: tuple[int, ...]
    centroids: tuple[tuple[float, ...], ...]
    inertia: float
    iterations: int


def pairwise_sum(values) -> float:
    """Pairwise sum of a float sequence, bit-identical to an array
    library's vector ``sum``.

    Started from 0.0: fewer than 8 values add in order; up to 128 run
    eight strided accumulators seeded with the first eight values,
    combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the tail
    adds in order; longer vectors split at half the length rounded down
    to a multiple of 8, and each half is summed the same way.
    """
    return 0.0 + _pairwise(values, 0, len(values))


def _pairwise(a, lo: int, n: int) -> float:
    if n < 8:
        res = 0.0
        for i in range(lo, lo + n):
            res += a[i]
        return res
    if n <= _PAIRWISE_BLOCK:
        r0, r1, r2, r3, r4, r5, r6, r7 = a[lo : lo + 8]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            r0 += a[i]
            r1 += a[i + 1]
            r2 += a[i + 2]
            r3 += a[i + 3]
            r4 += a[i + 4]
            r5 += a[i + 5]
            r6 += a[i + 6]
            r7 += a[i + 7]
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, lo + n):
            res += a[i]
        return res
    half = n // 2
    half -= half % 8
    return _pairwise(a, lo, half) + _pairwise(a, lo + half, n - half)


def _sq_distance(point, centroid) -> float:
    total = 0.0
    for x, c in zip(point, centroid):
        d = x - c
        total += d * d
    return total


def _seed_plusplus(points: list, k: int, rng: random.Random) -> list:
    """k-means++ initial centroids."""
    n = len(points)
    first = rng.randrange(n)
    centroids = [points[first]]
    dists = [_sq_distance(p, centroids[0]) for p in points]
    for _ in range(1, k):
        total = pairwise_sum(dists)
        if total <= 0.0:
            # All remaining points coincide with a centroid; pick any.
            chosen = points[rng.randrange(n)]
        else:
            # The first point whose running mass reaches the threshold.
            threshold = rng.random() * total
            running = 0.0
            idx = n - 1
            for i, d in enumerate(dists):
                running += d
                if running >= threshold:
                    idx = i
                    break
            chosen = points[idx]
        centroids.append(chosen)
        dists = [min(d, _sq_distance(p, chosen)) for d, p in zip(dists, points)]
    return centroids


def _mean(rows: list) -> tuple:
    """Per-dimension mean of *rows*.  Wider rows add row by row from
    0.0; a single column is one contiguous vector, so it is summed
    pairwise."""
    m = len(rows)
    if len(rows[0]) == 1:
        return (pairwise_sum([row[0] for row in rows]) / m,)
    sums = [0.0] * len(rows[0])
    for row in rows:
        for j, x in enumerate(row):
            sums[j] += x
    return tuple(total / m for total in sums)


def _as_points(points) -> list:
    """*points* as a list of equal-length float tuples; bare numbers are
    1-D points."""
    data = [
        (float(p),) if isinstance(p, numbers.Real) else tuple(map(float, p))
        for p in points
    ]
    if data and any(len(p) != len(data[0]) for p in data):
        raise AnalysisError("kmeans: points differ in dimension")
    return data


def kmeans(
    points,
    k: int,
    seed: int = 0,
    max_iterations: int = 100,
) -> KMeansResult:
    """Cluster *points* into *k* groups.

    Args:
        points: a sequence of equal-length coordinate sequences, or of
            numbers for 1-D data.
        k: number of clusters; must satisfy ``1 <= k <= n``.
        seed: seed for the deterministic k-means++ initialisation.
        max_iterations: Lloyd iteration cap.

    Raises:
        AnalysisError: if *k* is out of range or *points* is empty.
    """
    data = _as_points(points)
    n = len(data)
    if n == 0:
        raise AnalysisError("kmeans: no points to cluster")
    if not 1 <= k <= n:
        raise AnalysisError(f"kmeans: k={k} out of range for {n} points")

    rng = random.Random(seed)
    centroids = _seed_plusplus(data, k, rng)
    labels = [0] * n

    iterations = 0
    for iterations in range(1, max_iterations + 1):
        new_labels = []
        own_distance = []
        for p in data:
            row = [_sq_distance(p, c) for c in centroids]
            best = min(range(k), key=row.__getitem__)  # first minimum
            new_labels.append(best)
            own_distance.append(row[best])
        counts = [0] * k
        for label in new_labels:
            counts[label] += 1

        # Re-seed empty clusters from the worst-fit points.  Each empty
        # cluster takes a *distinct* point (otherwise two empty clusters
        # could claim the same point and one would stay empty).  Moving
        # a worst-fit point can itself empty its old cluster, so counts
        # stay live rather than snapshotting the empties.
        for cluster in range(k):
            if counts[cluster] == 0:
                worst = max(range(n), key=own_distance.__getitem__)
                counts[new_labels[worst]] -= 1
                new_labels[worst] = cluster
                counts[cluster] += 1
                own_distance[worst] = -float("inf")

        moved = new_labels != labels or iterations == 1
        labels = new_labels
        members: list = [[] for _ in range(k)]
        for p, label in zip(data, labels):
            members[label].append(p)
        new_centroids = [
            _mean(rows) if rows else centroids[cluster]
            for cluster, rows in enumerate(members)
        ]
        converged = not moved and all(
            abs(a - b) <= 1e-8 + 1e-5 * abs(b)
            for new, old in zip(new_centroids, centroids)
            for a, b in zip(new, old)
        )
        centroids = new_centroids
        if converged:
            break

    squares = []
    for p, label in zip(data, labels):
        for x, c in zip(p, centroids[label]):
            d = x - c
            squares.append(d * d)
    return KMeansResult(
        tuple(labels), tuple(centroids), pairwise_sum(squares), iterations
    )
