"""Property-based tests for k-means and its pairwise sum."""

import random

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.analysis.kmeans import kmeans, pairwise_sum

points_strategy = st.lists(
    st.tuples(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
    ),
    min_size=2,
    max_size=60,
)


@settings(max_examples=40, deadline=None)
@given(points=points_strategy, seed=st.integers(0, 1000))
def test_labels_in_range_and_clusters_nonempty(points, seed):
    k = min(2, len(points))
    result = kmeans(points, k, seed=seed)
    assert len(result.labels) == len(points)
    assert set(result.labels) == set(range(k))


@settings(max_examples=40, deadline=None)
@given(points=points_strategy, seed=st.integers(0, 1000))
def test_each_point_assigned_to_nearest_centroid(points, seed):
    k = min(3, len(points))
    result = kmeans(points, k, seed=seed)
    data = np.asarray(points, dtype=float)
    for i, label in enumerate(result.labels):
        own = np.sum((data[i] - result.centroids[label]) ** 2)
        others = [
            np.sum((data[i] - c) ** 2) for c in result.centroids
        ]
        # Nearest up to the empty-cluster re-seeding exception: the
        # point's own distance is never worse than the farthest option.
        assert own <= max(others) + 1e-9


@settings(max_examples=40, deadline=None)
@given(points=points_strategy, seed=st.integers(0, 1000))
def test_inertia_nonnegative_and_finite(points, seed):
    k = min(2, len(points))
    result = kmeans(points, k, seed=seed)
    assert result.inertia >= 0.0
    assert np.isfinite(result.inertia)


@settings(max_examples=20, deadline=None)
@given(points=points_strategy, seed=st.integers(0, 1000))
def test_determinism(points, seed):
    k = min(2, len(points))
    a = kmeans(points, k, seed=seed)
    b = kmeans(points, k, seed=seed)
    assert a.labels == b.labels


def _assert_sums_like_numpy(values):
    # hex() tells the bits apart, signed zeros included.  Huge values
    # may overflow to inf (or nan): both sides must agree on that too.
    with np.errstate(over="ignore", invalid="ignore"):
        expected = float(np.sum(np.asarray(values)))
    assert pairwise_sum(values).hex() == expected.hex()


@settings(max_examples=200, deadline=None)
@given(length=st.integers(0, 1100), seed=st.integers(0, 2**32 - 1))
@example(length=7, seed=0)
@example(length=8, seed=0)
@example(length=9, seed=0)
@example(length=128, seed=0)
@example(length=129, seed=0)
@example(length=136, seed=0)
@example(length=257, seed=0)
def test_pairwise_sum_matches_numpy_sum(length, seed):
    # Magnitudes over 16 decades, both signs: every addition rounds.
    rng = random.Random(seed)
    values = [
        rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 8) for _ in range(length)
    ]
    _assert_sums_like_numpy(values)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False), max_size=300
    )
)
def test_pairwise_sum_matches_numpy_sum_on_any_floats(values):
    _assert_sums_like_numpy(values)
