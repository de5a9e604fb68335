"""Property-based tests for cosine kernels (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.vector import (
    cosine_matrix_gemm,
    cosine_matrix_vectorized,
    cosine_scalar,
    normalize_rows,
)
from repro.vector.norms import l2_norms

finite_floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False,
    width=32,
)


def vectors(dim):
    return arrays(np.float32, (dim,), elements=finite_floats)


def matrices(rows, dim):
    return arrays(np.float32, (rows, dim), elements=finite_floats)


class TestPairProperties:
    @given(a=vectors(8), b=vectors(8))
    @settings(max_examples=100, deadline=None)
    def test_scalar_matches_vectorized(self, a, b):
        vectorized = float(cosine_matrix_vectorized(a[None, :], b[None, :])[0, 0])
        assert abs(cosine_scalar(a, b) - vectorized) < 1e-4

    @given(a=vectors(6), b=vectors(6))
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, a, b):
        assert cosine_scalar(a, b) == cosine_scalar(b, a)

    @given(a=vectors(6), b=vectors(6))
    @settings(max_examples=100, deadline=None)
    def test_range(self, a, b):
        value = cosine_scalar(a, b)
        assert -1.0 - 1e-4 <= value <= 1.0 + 1e-4

    @given(a=vectors(6), scale=st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, a, scale):
        b = (a * np.float32(scale)).astype(np.float32)
        if float(np.linalg.norm(a)) > 1e-3:
            assert cosine_scalar(a, b) > 0.999


class TestMatrixProperties:
    @given(left=matrices(4, 5), right=matrices(6, 5))
    @settings(max_examples=50, deadline=None)
    def test_gemm_matches_vectorized(self, left, right):
        a = cosine_matrix_vectorized(left, right)
        b = cosine_matrix_gemm(left, right)
        assert np.allclose(a, b, atol=2e-3)

    @given(m=matrices(5, 4))
    @settings(max_examples=50, deadline=None)
    def test_normalize_rows_unit_or_zero(self, m):
        norms = l2_norms(normalize_rows(m))
        for n in norms:
            assert abs(n - 1.0) < 1e-3 or n < 1e-6

    @given(m=matrices(4, 4))
    @settings(max_examples=50, deadline=None)
    def test_self_similarity_diagonal(self, m):
        sims = cosine_matrix_gemm(m, m)
        for i in range(m.shape[0]):
            if float(np.linalg.norm(m[i])) > 1e-3:
                assert sims[i, i] > 0.999
