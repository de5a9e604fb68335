"""Property-based tests for the quantized access paths.

Executable claims:

* int8/PQ approximate scores never stray past the quantizer's error bound
  (the soundness the threshold prescreen and the top-k proof rely on);
* a re-ranked quantized top-k at default settings selects, row by row,
  neighbours as good as the fp32 oracle's — on arbitrary rows and on
  synthetic embedding workloads alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (
    QuantizedRelation,
    ThresholdCondition,
    TopKCondition,
    quantized_tensor_join,
    tensor_join,
)
from repro.vector import normalize_rows
from repro.vector.quant import Int8Quantizer, ProductQuantizer
from repro.workloads import embedding_like_vectors
from repro.workloads.synthetic import clustered_vectors

pytestmark = pytest.mark.quant

finite_floats = st.floats(
    min_value=-8.0, max_value=8.0, allow_nan=False, allow_infinity=False,
    width=32,
)


def relation(min_rows=2, max_rows=40, dim=8):
    return st.integers(min_value=min_rows, max_value=max_rows).flatmap(
        lambda n: arrays(np.float32, (n, dim), elements=finite_floats)
    )


def _quantizer(method: str, dim: int):
    if method == "int8":
        return Int8Quantizer(dim)
    return ProductQuantizer(dim, m=4, ks=16, seed=99)


@pytest.mark.parametrize("method", ["int8", "pq"])
@given(data=relation(), queries=relation(max_rows=6))
@settings(max_examples=25, deadline=None)
def test_score_error_within_bound(method, data, queries):
    base = normalize_rows(data)
    probes = normalize_rows(queries)
    quant = _quantizer(method, 8).fit(base)
    approx = probes @ quant.decode(quant.encode(base)).T
    exact = probes @ base.T
    assert np.abs(approx - exact).max() <= quant.score_error_bound() + 1e-5


def _per_left_sorted_scores(result):
    from collections import defaultdict

    groups = defaultdict(list)
    for lid, score in zip(result.left_ids.tolist(), result.scores.tolist()):
        groups[lid].append(score)
    return {lid: sorted(s, reverse=True) for lid, s in groups.items()}


def _assert_same_match_quality(got, ref) -> None:
    """Equivalence up to float ties: GEMM (fp32 join) and the re-rank's
    einsum may round near-tied scores to different boundary partners, but
    the selected match quality must agree per left row."""
    ref_scores = _per_left_sorted_scores(ref)
    got_scores = _per_left_sorted_scores(got)
    assert set(ref_scores) == set(got_scores)
    for lid, expected in ref_scores.items():
        np.testing.assert_allclose(got_scores[lid], expected, atol=1e-5)


@pytest.mark.parametrize("method", ["int8", "pq"])
@given(data=relation(min_rows=3), queries=relation(max_rows=5), k=st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_topk_equals_fp32(method, data, queries, k):
    ref = tensor_join(queries, data, TopKCondition(k))
    got = quantized_tensor_join(queries, data, TopKCondition(k), method=method)
    _assert_same_match_quality(got, ref)


@pytest.mark.parametrize("method", ["int8", "pq"])
@given(
    data=relation(min_rows=3),
    queries=relation(max_rows=5),
    threshold=st.floats(min_value=-0.5, max_value=0.875, width=32),
)
@settings(max_examples=25, deadline=None)
def test_threshold_join_equals_fp32(method, data, queries, threshold):
    threshold = float(threshold)
    ref = tensor_join(queries, data, ThresholdCondition(threshold))
    got = quantized_tensor_join(
        queries, data, ThresholdCondition(threshold), method=method
    )
    # Pairs may differ only when float rounding puts the exact score
    # within an ulp-scale band of the threshold.
    scores = normalize_rows(queries) @ normalize_rows(data).T
    for li, ri in got.pairs() ^ ref.pairs():
        assert abs(float(scores[li, ri]) - threshold) <= 1e-5


@pytest.mark.parametrize("method", ["int8", "pq"])
@given(seed=st.integers(0, 50))
@settings(max_examples=8, deadline=None)
def test_topk_equals_fp32_on_synthetic_workloads(method, seed):
    data, _ = embedding_like_vectors(
        1024 + 48, 32, rank=12, n_clusters=64, noise=1.0, seed=seed
    )
    left, right = data[:48], data[48:]
    condition = TopKCondition(5)
    ref = tensor_join(left, right, condition)
    _assert_same_match_quality(quantized_tensor_join(left, right, condition, method=method), ref)


@given(seed=st.integers(0, 50))
@settings(max_examples=8, deadline=None)
def test_int8_recall_on_clustered_workload(seed):
    data, _ = clustered_vectors(
        1024 + 48, 24, n_clusters=16, noise=0.2, seed=seed
    )
    left, right = data[:48], data[48:]
    condition = TopKCondition(5)
    ref = tensor_join(left, right, condition)
    _assert_same_match_quality(
        quantized_tensor_join(left, right, condition, method="int8"), ref
    )


@given(data=relation(min_rows=5))
@settings(max_examples=15, deadline=None)
def test_store_deterministic(data):
    a = QuantizedRelation.build(data, "int8")
    b = QuantizedRelation.build(data, "int8")
    assert (a.codes == b.codes).all()
