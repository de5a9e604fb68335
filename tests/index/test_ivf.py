"""Unit tests for the IVF-Flat index."""

import numpy as np
import pytest

from repro.errors import IndexError_, IndexNotBuiltError
from repro.index import FlatIndex, IVFFlatIndex, kmeans
from repro.vector import normalize_rows
from repro.workloads import unit_vectors
from repro.workloads.synthetic import clustered_vectors

DIM = 16


@pytest.fixture(scope="module")
def base():
    vectors, _ = clustered_vectors(600, DIM, n_clusters=12, noise=0.15, seed=61)
    return vectors


@pytest.fixture(scope="module")
def ivf(base):
    idx = IVFFlatIndex(DIM, nlist=12, nprobe=4, seed=62)
    idx.add(base)
    return idx


class TestKMeans:
    def test_centroids_unit_norm(self, base):
        centroids = kmeans(base, 8, rng=np.random.default_rng(63))
        assert np.allclose(np.linalg.norm(centroids, axis=1), 1.0, atol=1e-4)

    def test_clusters_capped_at_n(self):
        data = normalize_rows(np.random.default_rng(64).standard_normal((3, 4)))
        centroids = kmeans(data, 10, rng=np.random.default_rng(65))
        assert centroids.shape[0] == 3

    def test_invalid_clusters(self, base):
        with pytest.raises(IndexError_):
            kmeans(base, 0)

    def test_recovers_planted_clusters(self):
        vectors, labels = clustered_vectors(
            300, DIM, n_clusters=4, noise=0.05, seed=66
        )
        centroids = kmeans(vectors, 4, rng=np.random.default_rng(67))
        assign = np.argmax(vectors @ centroids.T, axis=1)
        # Same-label points should mostly share an assigned centroid.
        agreement = 0
        for lbl in range(4):
            members = assign[labels == lbl]
            agreement += np.bincount(members).max()
        # k-means may locally split one planted cluster; gross recovery is
        # the property under test, not global optimality.
        assert agreement / len(vectors) > 0.8

    @staticmethod
    def reference(data, n_clusters, *, n_iters, rng, spherical):
        """The per-cluster mask loop ``kmeans`` replaced, and how many
        clusters it found empty."""
        n = data.shape[0]
        centroids = data[rng.choice(n, size=n_clusters, replace=False)].copy()
        empty = 0
        for _ in range(n_iters):
            if spherical:
                assign = np.argmax(data @ centroids.T, axis=1)
            else:
                obj = data @ centroids.T - 0.5 * np.einsum("ij,ij->i", centroids, centroids)
                assign = np.argmax(obj, axis=1)
            for c in range(n_clusters):
                members = data[assign == c]
                if len(members) == 0:
                    empty += 1
                    centroids[c] = data[int(rng.integers(n))]
                else:
                    centroids[c] = members.mean(axis=0)
            if spherical:
                centroids = normalize_rows(centroids)
        return centroids, empty

    @pytest.mark.parametrize("spherical", [True, False])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bit_identical_to_the_mask_loop(self, spherical, seed):
        rng = np.random.default_rng(seed)
        spread = rng.standard_normal((500, DIM)).astype(np.float32)
        # Rows repeated many times over: equal initial centroids tie, and
        # all but the first of them are left empty and reseeded.
        repeated = rng.standard_normal((6, DIM)).astype(np.float32)[rng.integers(0, 6, 300)]
        data = np.concatenate([spread, repeated])
        if spherical:
            data = normalize_rows(data)
        want, empty = self.reference(
            data, 40, n_iters=6, rng=np.random.default_rng(seed), spherical=spherical
        )
        got = kmeans(data, 40, n_iters=6, rng=np.random.default_rng(seed), spherical=spherical)
        assert empty > 0
        assert np.array_equal(got, want)


class TestIVFIndex:
    def test_validation(self):
        with pytest.raises(IndexError_):
            IVFFlatIndex(DIM, nlist=0)
        with pytest.raises(IndexError_):
            IVFFlatIndex(DIM, nprobe=0)

    def test_search_before_build(self):
        with pytest.raises(IndexNotBuiltError):
            IVFFlatIndex(DIM).search(np.ones(DIM), 1)

    def test_lists_partition_collection(self, ivf, base):
        assert sum(ivf.list_sizes()) == len(base)

    def test_self_query(self, ivf, base):
        result = ivf.search(base[42], 1)
        assert result.ids[0] == 42

    def test_recall_vs_flat(self, ivf, base):
        flat = FlatIndex(DIM)
        flat.add(base)
        queries = unit_vectors(25, DIM, seed=68)
        k = 5
        hits = 0
        for q in queries:
            expected = set(flat.search(q, k).ids.tolist())
            hits += len(expected & set(ivf.search(q, k).ids.tolist()))
        recall = hits / (k * len(queries))
        assert recall >= 0.6, f"IVF recall too low: {recall:.2f}"

    def test_full_nprobe_is_exact(self, base):
        """Probing every list degenerates to an exhaustive scan."""
        idx = IVFFlatIndex(DIM, nlist=8, nprobe=8, seed=69)
        idx.add(base)
        flat = FlatIndex(DIM)
        flat.add(base)
        q = unit_vectors(1, DIM, seed=70)[0]
        assert idx.search(q, 5).ids.tolist() == flat.search(q, 5).ids.tolist()

    def test_higher_nprobe_at_least_as_good(self, base):
        narrow = IVFFlatIndex(DIM, nlist=12, nprobe=1, seed=71)
        wide = IVFFlatIndex(DIM, nlist=12, nprobe=12, seed=71)
        narrow.add(base)
        wide.add(base)
        flat = FlatIndex(DIM)
        flat.add(base)
        queries = unit_vectors(20, DIM, seed=72)
        k = 5

        def recall(idx):
            hits = 0
            for q in queries:
                expected = set(flat.search(q, k).ids.tolist())
                hits += len(expected & set(idx.search(q, k).ids.tolist()))
            return hits / (k * len(queries))

        assert recall(wide) >= recall(narrow)

    def test_prefilter(self, ivf, base):
        allowed = np.zeros(len(base), dtype=bool)
        allowed[:50] = True
        result = ivf.search(unit_vectors(1, DIM, seed=73)[0], 10, allowed=allowed)
        assert all(i < 50 for i in result.ids.tolist())

    def test_prefilter_shape_check(self, ivf):
        with pytest.raises(IndexError_, match="bitmap"):
            ivf.search(np.ones(DIM), 1, allowed=np.ones(3, dtype=bool))

    def test_counters(self, ivf):
        before = ivf.stats.n_probes
        ivf.search(unit_vectors(1, DIM, seed=74)[0], 2)
        assert ivf.stats.n_probes == before + 1
        assert ivf.stats.build_seconds > 0

    def test_works_with_index_join(self, base):
        from repro.core import TopKCondition, index_join, tensor_join

        idx = IVFFlatIndex(DIM, nlist=8, nprobe=8, seed=75)
        idx.add(base)
        probes = unit_vectors(20, DIM, seed=76)
        got = index_join(probes, idx, TopKCondition(2)).pairs()
        expected = tensor_join(probes, base, TopKCondition(2)).pairs()
        assert len(got & expected) / len(expected) >= 0.95

    def test_describe(self, ivf):
        assert "nlist=12" in ivf.describe()


class TestSearchBatch:
    """The list-major batch probe must be indistinguishable from a loop of
    ``search``: same id sets, scores within fp32 GEMM-vs-GEMV rounding, and
    the same work counted."""

    @staticmethod
    def _assert_same(index, queries, k, allowed=None):
        stats = index.stats
        before = (stats.n_probes, stats.distance_computations, stats.hops)
        batch = index.search_batch(queries, k, allowed=allowed)
        mid = (stats.n_probes, stats.distance_computations, stats.hops)
        loop = [
            index.search(q, k, allowed=allowed) for q in normalize_rows(queries)
        ]
        after = (stats.n_probes, stats.distance_computations, stats.hops)
        assert np.subtract(mid, before).tolist() == np.subtract(after, mid).tolist()
        assert len(batch) == len(loop)
        for got, want in zip(batch, loop):
            assert set(got.ids.tolist()) == set(want.ids.tolist())
            assert got.ids.dtype == np.int64 and got.scores.dtype == np.float32
            np.testing.assert_allclose(
                np.sort(got.scores), np.sort(want.scores), atol=1e-6
            )
            assert (np.diff(got.scores) <= 0).all()  # best first
        return batch

    def test_matches_loop_of_search(self, ivf):
        self._assert_same(ivf, unit_vectors(40, DIM, seed=80), 5)

    def test_unnormalized_queries_and_single_query(self, ivf):
        queries = 3.0 * unit_vectors(1, DIM, seed=81)
        self._assert_same(ivf, queries, 3)

    def test_prefilter_bitmap(self, ivf, base):
        allowed = np.zeros(len(base), dtype=bool)
        allowed[::7] = True
        batch = self._assert_same(ivf, unit_vectors(30, DIM, seed=82), 6, allowed)
        assert all(allowed[r.ids].all() for r in batch)

    def test_bitmap_excluding_everything_probed(self, ivf, base):
        batch = self._assert_same(
            ivf, unit_vectors(5, DIM, seed=83), 4, np.zeros(len(base), dtype=bool)
        )
        assert all(len(r) == 0 for r in batch)

    def test_prefilter_shape_check(self, ivf):
        with pytest.raises(IndexError_, match="bitmap"):
            ivf.search_batch(np.ones((2, DIM)), 1, allowed=np.ones(3, dtype=bool))

    def test_k_larger_than_the_probed_lists(self, base):
        idx = IVFFlatIndex(DIM, nlist=12, nprobe=1, seed=84)
        idx.add(base)
        batch = self._assert_same(idx, unit_vectors(10, DIM, seed=85), 500)
        assert all(0 < len(r) < 500 for r in batch)

    def test_nprobe_at_least_nlist_is_exact(self, base):
        idx = IVFFlatIndex(DIM, nlist=8, nprobe=64, seed=86)
        idx.add(base)
        queries = unit_vectors(12, DIM, seed=87)
        batch = self._assert_same(idx, queries, 5)
        flat = FlatIndex(DIM)
        flat.add(base)
        for got, q in zip(batch, queries):
            assert got.ids.tolist() == flat.search(q, 5).ids.tolist()

    def test_empty_lists(self):
        """More lists than distinct points leaves lists empty after the
        final assignment; probing them finds nothing and counts nothing."""
        points = np.repeat(unit_vectors(3, DIM, seed=88), 20, axis=0)
        idx = IVFFlatIndex(DIM, nlist=16, nprobe=16, seed=89)
        idx.add(points)
        assert 0 in idx.list_sizes()
        batch = self._assert_same(idx, unit_vectors(6, DIM, seed=90), 4)
        assert all(len(r) == 4 for r in batch)

    def test_join_stats_match_the_per_query_path(self, ivf):
        """``JoinStats.similarity_evaluations`` comes from the index's
        distance counter, so the batched probe must not move it."""
        from repro.core import TopKCondition, index_join
        from repro.engine import ExecutionEngine

        probes = unit_vectors(50, DIM, seed=91)
        before = ivf.stats.distance_computations
        for q in probes:
            ivf.search(q, 3)
        per_query = ivf.stats.distance_computations - before
        serial = index_join(probes, ivf, TopKCondition(3))
        parallel = index_join(
            probes, ivf, TopKCondition(3), engine=ExecutionEngine(n_threads=3)
        )
        assert serial.stats.similarity_evaluations == per_query
        assert parallel.stats.similarity_evaluations == per_query
        np.testing.assert_array_equal(serial.left_ids, parallel.left_ids)
        np.testing.assert_array_equal(serial.right_ids, parallel.right_ids)

    def test_result_does_not_depend_on_the_probe_slice(self, ivf, monkeypatch):
        """A batch is probed a cache-sized slice at a time; where the slices
        cut must not show (scores move by GEMM block-shape rounding only)."""
        import repro.index.ivf as ivf_module

        queries = unit_vectors(23, DIM, seed=92)
        whole = ivf.search_batch(queries, 5)
        # Room for about 3 queries' worth of candidates per slice.
        widest = int(np.sort(ivf.list_sizes())[-ivf.nprobe :].sum())
        monkeypatch.setattr(ivf_module, "BLOCK_BYTES", 4 * widest * 3)
        calls = []
        probe_slice = ivf._probe_slice
        monkeypatch.setattr(
            ivf, "_probe_slice", lambda q, *a: calls.append(len(q)) or probe_slice(q, *a)
        )
        sliced = self._assert_same(ivf, queries, 5)
        # The batch's slices, then the loop's searches: a batch of one each.
        assert len(calls) > 3 + len(queries) and sum(calls) == 2 * len(queries)
        for got, want in zip(sliced, whole):
            assert got.ids.tolist() == want.ids.tolist()
            np.testing.assert_allclose(got.scores, want.scores, atol=1e-6)

    def test_probe_memory_does_not_grow_with_the_batch(self):
        """The score matrix covers one slice of the batch, never all of it:
        probing 8x the queries must not take 8x the memory."""
        import tracemalloc

        dim = 32
        idx = IVFFlatIndex(dim, nlist=8, nprobe=4, kmeans_iters=2, seed=93)
        idx.add(unit_vectors(20_000, dim, seed=94))
        queries = unit_vectors(4_000, dim, seed=95)

        def peak(n):
            tracemalloc.start()
            idx.search_batch(queries[:n], 4, assume_normalized=True)
            held = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return held

        # One dense matrix for 4,000 probes would be ~160 MB here.
        assert peak(4_000) < 2 * peak(500) < 40e6

    def test_empty_batch(self, ivf):
        assert ivf.search_batch(np.empty((0, DIM), dtype=np.float32), 3) == []
