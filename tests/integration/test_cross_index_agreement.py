"""Cross-substrate integration: all access paths answer the same query.

The paper's architectural claim is that the E-join is *one logical
operator* with interchangeable physical implementations.  These tests pin
that down across every implementation in the repo: scan strategies must be
exactly equal; approximate indexes must agree within their recall envelope;
E-selection must be consistent with a width-1 E-join.
"""

import numpy as np
import pytest

from repro.core import (
    ThresholdCondition,
    TopKCondition,
    ejoin,
    eselect,
    index_join,
    tensor_join,
)
from repro.index import FlatIndex, HNSWIndex, IVFFlatIndex
from repro.workloads import unit_vectors
from repro.workloads.synthetic import clustered_vectors

DIM = 24


@pytest.fixture(scope="module")
def data():
    base, _ = clustered_vectors(700, DIM, n_clusters=10, noise=0.2, seed=401)
    probes = unit_vectors(40, DIM, seed=402)
    return probes, base


@pytest.fixture(scope="module")
def indexes(data):
    _, base = data
    flat = FlatIndex(DIM)
    flat.add(base)
    hnsw = HNSWIndex(DIM, m=8, ef_construction=96, ef_search=64, seed=403)
    hnsw.add(base)
    ivf = IVFFlatIndex(DIM, nlist=10, nprobe=6, seed=404)
    ivf.add(base)
    return {"flat": flat, "hnsw": hnsw, "ivf": ivf}


class TestScanStrategiesExactlyEqual:
    @pytest.mark.parametrize("strategy", ["nlj", "tensor", "parallel-tensor"])
    def test_threshold(self, data, strategy):
        probes, base = data
        reference = tensor_join(probes, base, ThresholdCondition(0.5)).pairs()
        got = ejoin(probes, base, ThresholdCondition(0.5), strategy=strategy)
        assert got.pairs() == reference


class TestIndexesAgreeWithinRecall:
    @pytest.mark.parametrize("name,floor", [("flat", 1.0), ("hnsw", 0.9), ("ivf", 0.85)])
    def test_topk_recall(self, data, indexes, name, floor):
        probes, base = data
        exact = tensor_join(probes, base, TopKCondition(3)).pairs()
        got = index_join(probes, indexes[name], TopKCondition(3)).pairs()
        assert len(got & exact) / len(exact) >= floor

    @pytest.mark.parametrize("name", ["flat", "hnsw", "ivf"])
    def test_prefilter_respected_everywhere(self, data, indexes, name):
        probes, base = data
        allowed = np.zeros(len(base), dtype=bool)
        allowed[100:300] = True
        result = index_join(
            probes, indexes[name], TopKCondition(2), allowed=allowed
        )
        assert len(result) > 0
        assert all(100 <= r < 300 for r in result.right_ids.tolist())


class TestESelectionConsistency:
    def test_eselect_equals_single_probe_ejoin(self, data):
        """sigma_{E,mu,theta}(R) with query q == E-join of {q} with R."""
        probes, base = data
        query = probes[0]
        sel = eselect(base, query, TopKCondition(5))
        join = tensor_join(
            query[None, :], base, TopKCondition(5), assume_normalized=True
        )
        assert sel.ids.tolist() == join.right_ids.tolist()
        assert np.allclose(sel.scores, join.scores, atol=1e-5)

    def test_threshold_selection_subset_of_threshold_join(self, data):
        probes, base = data
        cond = ThresholdCondition(0.4)
        join_pairs = tensor_join(probes, base, cond).pairs()
        for i in (0, 3, 9):
            sel = eselect(base, probes[i], cond)
            assert {(i, int(r)) for r in sel.ids} <= join_pairs or set(
                sel.ids.tolist()
            ) == {r for li, r in join_pairs if li == i}
