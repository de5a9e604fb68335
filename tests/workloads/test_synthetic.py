"""Unit tests for synthetic vector workloads."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.vector.norms import l2_norms
from repro.workloads import paired_relations, random_vectors, unit_vectors
from repro.workloads.synthetic import clustered_vectors


class TestRandomVectors:
    def test_shape_and_dtype(self):
        v = random_vectors(10, 4, seed=1)
        assert v.shape == (10, 4)
        assert v.dtype == np.float32

    def test_seeded_determinism(self):
        assert np.allclose(random_vectors(5, 3, seed=2), random_vectors(5, 3, seed=2))

    def test_stream_determinism(self):
        a = random_vectors(5, 3, stream="x")
        b = random_vectors(5, 3, stream="x")
        c = random_vectors(5, 3, stream="y")
        assert np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_invalid_shape(self):
        with pytest.raises(WorkloadError):
            random_vectors(-1, 4)
        with pytest.raises(WorkloadError):
            random_vectors(4, 0)


class TestUnitVectors:
    def test_normalized(self):
        v = unit_vectors(20, 6, seed=3)
        assert np.allclose(l2_norms(v), 1.0, atol=1e-5)


class TestClusteredVectors:
    def test_labels_shape(self):
        v, labels = clustered_vectors(100, 8, n_clusters=4, seed=4)
        assert v.shape == (100, 8)
        assert labels.shape == (100,)
        assert set(labels.tolist()) <= set(range(4))

    def test_intra_cluster_similarity_higher(self):
        v, labels = clustered_vectors(200, 16, n_clusters=4, noise=0.1, seed=5)
        sims = v @ v.T
        same = sims[labels[:, None] == labels[None, :]]
        diff = sims[labels[:, None] != labels[None, :]]
        assert same.mean() > diff.mean() + 0.3

    def test_validation(self):
        with pytest.raises(WorkloadError):
            clustered_vectors(10, 4, n_clusters=0)
        with pytest.raises(WorkloadError):
            clustered_vectors(10, 4, noise=-1)


class TestPairedRelations:
    def test_ground_truth_near_duplicates(self):
        left, right, truth = paired_relations(
            50, 80, 16, overlap=0.2, noise=0.01, seed=6
        )
        assert len(truth) == 10
        for li, ri in truth:
            assert float(left[li] @ right[ri]) > 0.95

    def test_non_duplicates_far(self):
        left, right, truth = paired_relations(
            50, 80, 16, overlap=0.1, noise=0.01, seed=7
        )
        dup_left = {li for li, _ in truth}
        non_dup = [i for i in range(50) if i not in dup_left]
        sims = left[non_dup] @ right.T
        assert sims.max() < 0.95

    def test_zero_overlap(self):
        _, _, truth = paired_relations(10, 10, 4, overlap=0.0, seed=8)
        assert truth == set()

    def test_overlap_validation(self):
        with pytest.raises(WorkloadError):
            paired_relations(10, 10, 4, overlap=1.5)
