"""Unit tests for the from-scratch k-means."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import AnalysisError
from repro.analysis.block_typing import _typable_blocks, build_all_cfgs
from repro.analysis.features import block_features
from repro.analysis.kmeans import kmeans
from repro.workloads.spec import SPEC_BENCHMARKS, spec_benchmark


def test_two_obvious_clusters():
    points = [(0.0, 0.0), (0.1, 0.1), (10.0, 10.0), (10.1, 9.9)]
    result = kmeans(points, 2, seed=1)
    assert result.labels[0] == result.labels[1]
    assert result.labels[2] == result.labels[3]
    assert result.labels[0] != result.labels[2]


def test_deterministic_given_seed():
    points = [(float(i % 7), float(i % 3)) for i in range(50)]
    a = kmeans(points, 3, seed=42)
    b = kmeans(points, 3, seed=42)
    assert a == b


def test_k_equals_n():
    points = [(0.0,), (5.0,), (10.0,)]
    result = kmeans(points, 3, seed=0)
    assert sorted(result.labels) == [0, 1, 2]
    assert result.inertia == pytest.approx(0.0)


def test_k_one_centroid_is_mean():
    points = [(1.0, 2.0), (3.0, 4.0)]
    result = kmeans(points, 1, seed=0)
    assert result.centroids == ((2.0, 3.0),)


def test_identical_points():
    points = [(1.0, 1.0)] * 6
    result = kmeans(points, 2, seed=0)
    assert len(result.labels) == 6
    assert result.inertia == 0.0


def test_no_empty_clusters():
    # An outlier far from a tight cluster: both clusters stay populated.
    points = [(0.0, 0.0)] * 9 + [(100.0, 100.0)]
    result = kmeans(points, 2, seed=3)
    assert set(result.labels) == {0, 1}


def test_one_dimensional_input():
    result = kmeans([0.0, 0.1, 9.9, 10.0], 2, seed=0)
    assert result.labels[0] == result.labels[1]
    assert result.labels[2] == result.labels[3]


def test_inertia_nonincreasing_in_k():
    points = [(float(i), float(i * i % 11)) for i in range(30)]
    inertias = [kmeans(points, k, seed=5).inertia for k in (1, 2, 4, 8)]
    assert all(a >= b - 1e-9 for a, b in zip(inertias, inertias[1:]))


@pytest.mark.parametrize("k", [0, 5])
def test_bad_k_rejected(k):
    with pytest.raises(AnalysisError):
        kmeans([(0.0,), (1.0,)], k)


def test_empty_input_rejected():
    with pytest.raises(AnalysisError):
        kmeans([], 1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_coordinates_rejected(bad):
    with pytest.raises(AnalysisError, match="finite"):
        kmeans([(0.0, 1.0), (2.0, bad), (3.0, 4.0)], 2)
    with pytest.raises(AnalysisError, match="finite"):
        kmeans([0.0, bad, 1.0], 1)


# -- the array formulation as the bit-identity oracle ---------------------------


def _reference_seed(points, k, rng):
    """k-means++ seeding as the array implementation did it."""
    n = len(points)
    first = rng.randrange(n)
    centroids = [points[first]]
    for _ in range(1, k):
        dists = np.min(
            [np.sum((points - c) ** 2, axis=1) for c in centroids], axis=0
        )
        total = float(dists.sum())
        if total <= 0.0:
            centroids.append(points[rng.randrange(n)])
            continue
        threshold = rng.random() * total
        cumulative = np.cumsum(dists)
        idx = int(np.searchsorted(cumulative, threshold))
        centroids.append(points[min(idx, n - 1)])
    return np.array(centroids, dtype=float)


def _reference_kmeans(points, k, seed=0, max_iterations=100):
    """The array Lloyd loop (per-centroid distances, boolean masks),
    kept as the oracle: the scalar implementation performs the same
    IEEE-754 operations in the same order, so results must match *bit
    for bit*, not just approximately."""
    data = np.asarray(points, dtype=float)
    if data.ndim == 1:
        data = data.reshape(-1, 1)
    n = len(data)
    rng = random.Random(seed)
    centroids = _reference_seed(data, k, rng)
    labels = np.zeros(n, dtype=int)

    iterations = 0
    for iterations in range(1, max_iterations + 1):
        distances = np.stack(
            [np.sum((data - c) ** 2, axis=1) for c in centroids], axis=1
        )
        new_labels = np.argmin(distances, axis=1)
        own_distance = distances[np.arange(n), new_labels].copy()
        for cluster in range(k):
            if not np.any(new_labels == cluster):
                worst = int(np.argmax(own_distance))
                new_labels[worst] = cluster
                own_distance[worst] = -np.inf
        moved = bool(np.any(new_labels != labels)) or iterations == 1
        labels = new_labels
        new_centroids = np.array(
            [
                data[labels == cluster].mean(axis=0)
                if np.any(labels == cluster)
                else centroids[cluster]
                for cluster in range(k)
            ]
        )
        converged = np.allclose(new_centroids, centroids) and not moved
        centroids = new_centroids
        if converged:
            break

    inertia = float(np.sum((data - centroids[labels]) ** 2))
    return labels, centroids, inertia, iterations


def _assert_matches_reference(points, k, seed):
    got = kmeans(points, k, seed=seed)
    labels, centroids, inertia, iterations = _reference_kmeans(points, k, seed)
    assert got.labels == tuple(labels.tolist())
    assert got.centroids == tuple(map(tuple, centroids.tolist()))
    assert got.inertia.hex() == inertia.hex()
    assert got.iterations == iterations


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
@pytest.mark.parametrize("n,k", [(12, 2), (50, 2), (200, 3), (301, 8)])
def test_vectorized_matches_reference_exactly(seed, n, k):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 2)) * rng.uniform(0.5, 20.0)
    _assert_matches_reference(points, k, seed)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("n,k,dims", [(300, 2, 1), (150, 3, 3)])
def test_matches_reference_in_other_dimensions(seed, n, k, dims):
    # One column sums each cluster pairwise; three add row by row.
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, dims)) * rng.uniform(0.5, 20.0)
    _assert_matches_reference(points, k, seed)


def test_vectorized_matches_reference_with_empty_reseeds():
    # Duplicated points force empty-cluster re-seeding down both paths.
    points = [(0.0, 0.0)] * 10 + [(5.0, 5.0)] * 3 + [(9.0, 1.0)]
    for seed in range(6):
        _assert_matches_reference(points, 4, seed)


def test_matches_reference_on_coincident_points():
    # Zero seeding mass: k-means++ picks any point for the later centroids.
    for points in ([(1.0, 1.0)] * 6, [(2.5,)] * 9, [(3.0, -1.0)] * 200):
        for seed in range(4):
            _assert_matches_reference(points, 3, seed)


@pytest.mark.parametrize("bench", SPEC_BENCHMARKS)
def test_static_typer_points_match_reference(bench):
    """The production input: 2-D features of a SPEC program's blocks."""
    program = spec_benchmark(bench).program
    blocks = _typable_blocks(program, build_all_cfgs(program))
    points = [block_features(b, program).as_tuple() for b in blocks]
    assert len(points) > 8  # past the sequential pairwise-sum case
    _assert_matches_reference(points, 2, 0)


_coordinate = st.floats(min_value=-100, max_value=100, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    points=st.one_of(
        st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=160),
        st.lists(_coordinate, min_size=1, max_size=160),
        st.lists(
            st.sampled_from([(0.0, 0.0), (1.0, 2.0), (5.0, 5.0)]),
            min_size=1,
            max_size=40,
        ),
    ),
    k=st.integers(1, 5),
    seed=st.integers(0, 1000),
)
@example(points=[(0.0, 0.0)] * 10 + [(5.0, 5.0)] * 3 + [(9.0, 1.0)], k=4, seed=2)
@example(points=[(1.0, 1.0)] * 6, k=2, seed=0)
def test_matches_reference_on_any_points(points, k, seed):
    _assert_matches_reference(points, min(k, len(points)), seed)
