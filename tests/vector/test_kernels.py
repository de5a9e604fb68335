"""Unit tests for cosine kernels: all strategies must agree."""

import numpy as np
import pytest

from repro.errors import DimensionalityError
from repro.vector import (
    cosine_matrix_gemm,
    cosine_matrix_vectorized,
    cosine_scalar,
)


@pytest.fixture()
def pair():
    rng = np.random.default_rng(3)
    return (
        rng.standard_normal(16).astype(np.float32),
        rng.standard_normal(16).astype(np.float32),
    )


@pytest.fixture()
def matrices():
    rng = np.random.default_rng(4)
    return (
        rng.standard_normal((7, 12)).astype(np.float32),
        rng.standard_normal((9, 12)).astype(np.float32),
    )


class TestPairKernels:
    def test_cosine_scalar_matches_vectorized(self, pair):
        a, b = pair
        vectorized = cosine_matrix_vectorized(a[None, :], b[None, :])[0, 0]
        assert cosine_scalar(a, b) == pytest.approx(float(vectorized), abs=1e-5)

    def test_cosine_self_is_one(self, pair):
        a, _ = pair
        assert cosine_scalar(a, a) == pytest.approx(1.0, abs=1e-5)

    def test_cosine_opposite_is_minus_one(self, pair):
        a, _ = pair
        assert cosine_scalar(a, -a) == pytest.approx(-1.0, abs=1e-5)

    def test_cosine_zero_vector(self):
        z = np.zeros(4, dtype=np.float32)
        o = np.ones(4, dtype=np.float32)
        assert cosine_scalar(z, o) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(DimensionalityError):
            cosine_scalar(np.ones(3), np.ones(4))

    def test_requires_1d(self):
        with pytest.raises(DimensionalityError):
            cosine_scalar(np.ones((2, 2)), np.ones((2, 2)))


class TestMatrixKernels:
    def test_all_kernels_agree(self, matrices):
        left, right = matrices
        scalar = np.asarray(
            [[cosine_scalar(row, col) for col in right] for row in left]
        )
        vectorized = cosine_matrix_vectorized(left, right)
        gemm = cosine_matrix_gemm(left, right)
        assert np.allclose(scalar, vectorized, atol=1e-4)
        assert np.allclose(vectorized, gemm, atol=1e-4)

    def test_result_shape(self, matrices):
        left, right = matrices
        assert cosine_matrix_gemm(left, right).shape == (7, 9)

    def test_values_in_range(self, matrices):
        left, right = matrices
        scores = cosine_matrix_gemm(left, right)
        assert scores.min() >= -1.0 - 1e-5
        assert scores.max() <= 1.0 + 1e-5

    def test_zero_row_handling(self):
        left = np.zeros((2, 3), dtype=np.float32)
        right = np.ones((2, 3), dtype=np.float32)
        for fn in (cosine_matrix_vectorized, cosine_matrix_gemm):
            assert np.allclose(fn(left, right), 0.0)

    def test_shape_mismatch(self, matrices):
        left, right = matrices
        bad = right[:, :5]
        for fn in (cosine_matrix_vectorized, cosine_matrix_gemm):
            with pytest.raises(DimensionalityError):
                fn(left, bad)

    def test_symmetry_of_transpose(self, matrices):
        left, right = matrices
        assert np.allclose(
            cosine_matrix_gemm(left, right),
            cosine_matrix_gemm(right, left).T,
            atol=1e-5,
        )
