"""Property-based tests for E-join equivalences (the paper's algebraic
claims as executable properties)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (
    ThresholdCondition,
    TopKCondition,
    ejoin,
    prefetch_nlj,
    tensor_join,
    tensor_join_non_batched,
)

finite_floats = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False,
    width=32,
)


def relation(max_rows=12, dim=6):
    return st.integers(min_value=1, max_value=max_rows).flatmap(
        lambda n: arrays(np.float32, (n, dim), elements=finite_floats)
    )


def topk_equivalent(a, b, tol=1e-3) -> bool:
    """Top-k equivalence up to ties.

    Different BLAS kernels (GEMM vs matvec, and GEMM under different block
    shapes) round near-tied scores differently, so the partner chosen at the
    k boundary may legitimately differ.  The invariant that *must* hold: for
    every left row, both strategies select matches of the same quality —
    the sorted score lists agree within float tolerance.
    """
    from collections import defaultdict

    def by_left(result):
        groups: dict[int, list[float]] = defaultdict(list)
        for lid, score in zip(result.left_ids.tolist(), result.scores.tolist()):
            groups[lid].append(score)
        return {lid: sorted(s, reverse=True) for lid, s in groups.items()}

    ga, gb = by_left(a), by_left(b)
    if set(ga) != set(gb):
        return False
    for lid in ga:
        if len(ga[lid]) != len(gb[lid]):
            return False
        if not np.allclose(ga[lid], gb[lid], atol=tol):
            return False
    return True


thresholds = st.floats(min_value=-0.99, max_value=0.99)
ks = st.integers(min_value=1, max_value=5)


class TestFormulationEquivalence:
    """Tensor formulation == NLJ formulation (exact algorithms, Sec IV-C)."""

    @given(left=relation(), right=relation(), t=thresholds)
    @settings(max_examples=60, deadline=None)
    def test_threshold_tensor_equals_nlj(self, left, right, t):
        cond = ThresholdCondition(t)
        assert (
            tensor_join(left, right, cond).pairs()
            == prefetch_nlj(left, right, cond).pairs()
        )

    @given(left=relation(), right=relation(), k=ks)
    @settings(max_examples=60, deadline=None)
    def test_topk_tensor_equals_nlj(self, left, right, k):
        cond = TopKCondition(k)
        assert topk_equivalent(
            tensor_join(left, right, cond), prefetch_nlj(left, right, cond)
        )

    @given(left=relation(), right=relation(), t=thresholds)
    @settings(max_examples=40, deadline=None)
    def test_non_batched_equals_batched(self, left, right, t):
        cond = ThresholdCondition(t)
        assert (
            tensor_join_non_batched(left, right, cond).pairs()
            == tensor_join(left, right, cond).pairs()
        )


class TestBlockDecomposition:
    """Block-matrix decomposition invariance (Figure 6 / Section V-B)."""

    @given(
        left=relation(max_rows=16),
        right=relation(max_rows=16),
        bl=st.integers(min_value=1, max_value=8),
        br=st.integers(min_value=1, max_value=8),
        t=thresholds,
    )
    @settings(max_examples=60, deadline=None)
    def test_any_batch_shape_same_result(self, left, right, bl, br, t):
        cond = ThresholdCondition(t)
        full = tensor_join(left, right, cond)
        batched = tensor_join(left, right, cond, batch_left=bl, batch_right=br)
        assert full.pairs() == batched.pairs()

    @given(
        left=relation(max_rows=14),
        right=relation(max_rows=14),
        bl=st.integers(min_value=1, max_value=6),
        br=st.integers(min_value=1, max_value=6),
        k=ks,
    )
    @settings(max_examples=50, deadline=None)
    def test_topk_batch_invariance(self, left, right, bl, br, k):
        cond = TopKCondition(k)
        full = tensor_join(left, right, cond)
        batched = tensor_join(left, right, cond, batch_left=bl, batch_right=br)
        assert topk_equivalent(full, batched)


class TestParallelEquivalence:
    @given(
        left=relation(max_rows=16),
        right=relation(max_rows=16),
        threads=st.integers(min_value=1, max_value=5),
        t=thresholds,
    )
    @settings(max_examples=30, deadline=None)
    def test_partitioned_execution_same_result(self, left, right, threads, t):
        cond = ThresholdCondition(t)
        assert (
            ejoin(left, right, cond, strategy="parallel-tensor", n_threads=threads).pairs()
            == tensor_join(left, right, cond).pairs()
        )


class TestResultInvariants:
    @given(left=relation(), right=relation(), k=ks)
    @settings(max_examples=40, deadline=None)
    def test_topk_emits_at_most_k_per_left(self, left, right, k):
        result = tensor_join(left, right, TopKCondition(k))
        counts = np.bincount(result.left_ids, minlength=left.shape[0])
        assert (counts <= k).all()
        assert (counts == min(k, right.shape[0])).all()

    @given(left=relation(), right=relation(), t=thresholds)
    @settings(max_examples=40, deadline=None)
    def test_threshold_scores_respect_threshold(self, left, right, t):
        result = tensor_join(left, right, ThresholdCondition(t))
        # float32 GEMM rounding: allow epsilon.
        assert (result.scores >= t - 1e-4).all()

    @given(left=relation(), right=relation(), t=thresholds)
    @settings(max_examples=40, deadline=None)
    def test_offsets_in_range(self, left, right, t):
        result = tensor_join(left, right, ThresholdCondition(t))
        if len(result):
            assert result.left_ids.min() >= 0
            assert result.left_ids.max() < left.shape[0]
            assert result.right_ids.min() >= 0
            assert result.right_ids.max() < right.shape[0]
