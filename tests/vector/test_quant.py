"""Unit tests for the int8 vector quantizer."""

import numpy as np
import pytest

from repro.errors import DimensionalityError
from repro.vector import normalize_rows
from repro.vector.quant import Int8Quantizer, int8_dot
from repro.workloads import unit_vectors

pytestmark = pytest.mark.quant


@pytest.fixture()
def data() -> np.ndarray:
    return unit_vectors(300, 24, seed=11)


@pytest.fixture()
def queries() -> np.ndarray:
    return unit_vectors(20, 24, seed=22)


class TestInt8Quantizer:
    def test_codes_dtype_and_footprint(self, data):
        q = Int8Quantizer(24).fit(data)
        codes = q.encode(data)
        assert codes.dtype == np.int8
        assert codes.shape == data.shape
        assert q.bytes_per_code == 24
        assert codes.nbytes == data.nbytes // 4

    def test_roundtrip_error_within_step(self, data):
        q = Int8Quantizer(24).fit(data)
        decoded = q.decode(q.encode(data))
        assert (np.abs(decoded - data) <= q.scale / 2 + 1e-6).all()

    def test_score_error_bound_holds(self, data, queries):
        q = Int8Quantizer(24).fit(data)
        approx = queries @ q.decode(q.encode(data)).T
        exact = queries @ data.T
        assert np.abs(approx - exact).max() <= q.score_error_bound()

    def test_prepared_scores_match_decode(self, data, queries):
        q = Int8Quantizer(24).fit(data)
        codes = q.encode(data)
        scores = q.scores_block(q.prepare_queries(queries), codes)
        expected = queries @ q.decode(codes).T
        np.testing.assert_allclose(scores, expected, atol=1e-5)

    def test_biasless_scores_shift_per_query_only(self, data, queries):
        q = Int8Quantizer(24).fit(data)
        codes = q.encode(data)
        prepared = q.prepare_queries(queries)
        full = q.scores_block(prepared, codes)
        biasless = q.scores_block(prepared, codes, include_bias=False)
        shift = full - biasless
        # The omitted bias is constant along the code axis.
        np.testing.assert_allclose(shift - shift[:, :1], 0.0, atol=1e-5)

    def test_requires_fit(self, data):
        with pytest.raises(DimensionalityError, match="not fitted"):
            Int8Quantizer(24).encode(data)

    def test_constant_dimension(self):
        flat = np.ones((10, 4), dtype=np.float32)
        q = Int8Quantizer(4).fit(flat)
        np.testing.assert_allclose(q.decode(q.encode(flat)), flat, atol=1e-5)


class TestInt8Dot:
    def test_exact_small(self):
        rng = np.random.default_rng(3)
        a = rng.integers(-128, 128, size=(5, 17)).astype(np.int8)
        b = rng.integers(-128, 128, size=(7, 17)).astype(np.int8)
        expected = a.astype(np.int64) @ b.T.astype(np.int64)
        got = int8_dot(a, b)
        assert got.dtype == np.int32
        assert (got == expected).all()

    def test_exact_beyond_chunk(self):
        rng = np.random.default_rng(4)
        a = rng.integers(-128, 128, size=(3, 2500)).astype(np.int8)
        expected = a.astype(np.int64) @ a.T.astype(np.int64)
        assert (int8_dot(a, a) == expected).all()

    def test_width_mismatch(self):
        with pytest.raises(DimensionalityError, match="width mismatch"):
            int8_dot(np.zeros((2, 3), np.int8), np.zeros((2, 4), np.int8))


class TestKmeansFlag:
    def test_spherical_default_unit(self):
        from repro.index.ivf import kmeans

        data = normalize_rows(
            np.random.default_rng(18).standard_normal((200, 6)).astype(np.float32)
        )
        cents = kmeans(data, 8, rng=np.random.default_rng(1))
        np.testing.assert_allclose(
            np.linalg.norm(cents, axis=1), 1.0, atol=1e-5
        )
