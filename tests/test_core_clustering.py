"""Tests for signature clustering (repro.core.clustering)."""

import numpy as np
import pytest

from repro.core.clustering import (agglomerative_cluster,
                                   cluster_instruction_signatures,
                                   signature_distance)

from .oracles import naive_cluster


def _waves(seed=0):
    """Three families of signatures with within-family similarity."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 4 * np.pi, 120)
    families = {
        "sin": np.sin(t),
        "saw": (t % np.pi) / np.pi,
        "burst": np.exp(-t) * np.cos(5 * t),
    }
    signatures = {}
    for family, base in families.items():
        for index in range(4):
            signatures[f"{family}{index}"] = \
                base * rng.uniform(0.8, 1.2) + \
                rng.normal(0, 0.02, size=t.shape)
    return signatures


def test_signature_distance_properties():
    a = np.sin(np.linspace(0, 10, 100))
    assert signature_distance(a, a) == pytest.approx(0.0, abs=1e-12)
    assert signature_distance(a, 2 * a) == pytest.approx(0.0, abs=1e-12)
    assert signature_distance(a, -a) == pytest.approx(2.0)
    assert 0.0 <= signature_distance(a, np.cos(np.linspace(0, 10, 100))) \
        <= 2.0


def test_clusters_recover_families():
    result = agglomerative_cluster(_waves(), num_clusters=3)
    assert result.num_clusters == 3
    for family in ("sin", "saw", "burst"):
        labels = {result.labels[f"{family}{index}"] for index in range(4)}
        assert len(labels) == 1, f"family {family} split across clusters"


def test_members_and_table():
    result = agglomerative_cluster(_waves(), num_clusters=3)
    clusters = result.clusters()
    assert sum(len(group) for group in clusters) == 12
    table = result.table()
    assert "cluster" in table
    assert len(table.splitlines()) == 4


def test_distance_threshold_stops_merging():
    result = agglomerative_cluster(_waves(), num_clusters=1,
                                   distance_threshold=0.3)
    # merging across families costs ~1.0, so the threshold keeps 3
    assert result.num_clusters == 3


def test_single_item_and_empty():
    result = agglomerative_cluster({"only": np.ones(10)}, num_clusters=1)
    assert result.labels == {"only": 0}
    assert agglomerative_cluster({}, num_clusters=3).labels == {}


def test_merge_heights_monotone_enough():
    result = agglomerative_cluster(_waves(), num_clusters=1)
    heights = result.merge_heights
    # early merges (within family) far cheaper than final merges
    assert max(heights[:8]) < min(heights[-2:])


def test_instruction_signatures_alias():
    signatures = _waves()
    assert cluster_instruction_signatures(signatures, num_clusters=3) \
        .num_clusters == 3


# ---------------------------------------------------------------------------
# Lance-Williams engine vs the re-averaging reference (tests/oracles.py)
# ---------------------------------------------------------------------------
def _random_signatures(seed, count=None, length=None):
    rng = np.random.default_rng(seed)
    count = count or int(rng.integers(4, 24))
    length = length or int(rng.integers(16, 64))
    signatures = {}
    for index in range(count):
        if index and seed % 3 == 0 and index % 5 == 0:
            # exact duplicate of an earlier signature: tie territory
            signatures[f"s{index:02d}"] = \
                signatures[f"s{index - 1:02d}"].copy()
        elif seed % 4 == 0 and index % 7 == 3:
            signatures[f"s{index:02d}"] = np.zeros(length)  # silent
        else:
            signatures[f"s{index:02d}"] = rng.normal(size=length)
    return signatures


@pytest.mark.parametrize("seed", range(12))
def test_lw_matches_naive_linkage(seed):
    from repro.core.clustering import signature_distance_matrix

    signatures = _random_signatures(seed)
    clusters = max(1, len(signatures) // 3)
    threshold = 0.9 if seed % 2 else None
    naive = naive_cluster(signatures, num_clusters=clusters,
                          distance_threshold=threshold)
    fast = agglomerative_cluster(signatures, num_clusters=clusters,
                                 distance_threshold=threshold)
    assert naive.labels == fast.labels
    assert np.allclose(naive.merge_heights, fast.merge_heights,
                       atol=1e-12)


def test_distance_matrix_matches_scalar_pairs():
    from repro.core.clustering import signature_distance_matrix

    signatures = _random_signatures(4, count=10, length=32)
    signatures["silent"] = np.zeros(32)
    names, matrix = signature_distance_matrix(signatures)
    assert list(names) == list(signatures)
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            expected = signature_distance(signatures[a], signatures[b])
            assert abs(matrix[i, j] - expected) < 1e-12
    assert np.array_equal(matrix, matrix.T)
    assert np.all(np.diag(matrix) == 0.0)


def test_distance_matrix_mixed_lengths_falls_back():
    from repro.core.clustering import signature_distance_matrix

    rng = np.random.default_rng(0)
    signatures = {"short": rng.normal(size=16),
                  "long": rng.normal(size=48),
                  "other": rng.normal(size=32)}
    names, matrix = signature_distance_matrix(signatures)
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            expected = signature_distance(signatures[a], signatures[b])
            assert abs(matrix[i, j] - expected) < 1e-12

