"""Unit tests for normalization utilities."""

import numpy as np
import pytest

from repro.errors import DimensionalityError
from repro.vector import normalize_rows, normalize_vector
from repro.vector.norms import l2_norms


class TestL2Norms:
    def test_known_values(self):
        m = np.asarray([[3.0, 4.0], [0.0, 0.0]])
        assert l2_norms(m).tolist() == [5.0, 0.0]

    def test_requires_2d(self):
        with pytest.raises(DimensionalityError):
            l2_norms(np.ones(3))


class TestNormalizeRows:
    def test_unit_norms(self):
        m = np.random.default_rng(0).standard_normal((10, 4))
        n = normalize_rows(m)
        assert np.allclose(l2_norms(n), 1.0, atol=1e-5)

    def test_zero_rows_stay_zero(self):
        m = np.asarray([[0.0, 0.0], [1.0, 0.0]])
        n = normalize_rows(m)
        assert n[0].tolist() == [0.0, 0.0]
        assert n[1].tolist() == [1.0, 0.0]

    def test_copy_semantics(self):
        m = np.ones((2, 2), dtype=np.float32)
        n = normalize_rows(m, copy=True)
        assert m[0, 0] == 1.0  # original untouched
        assert n[0, 0] == pytest.approx(1 / np.sqrt(2))

    def test_output_float32(self):
        n = normalize_rows(np.ones((2, 2), dtype=np.float64))
        assert n.dtype == np.float32

    def test_idempotent(self):
        m = np.random.default_rng(1).standard_normal((5, 3))
        once = normalize_rows(m)
        twice = normalize_rows(once)
        assert np.allclose(once, twice, atol=1e-6)


class TestNormalizeVector:
    def test_unit(self):
        v = normalize_vector(np.asarray([3.0, 4.0]))
        assert np.allclose(v, [0.6, 0.8])

    def test_zero_vector(self):
        assert normalize_vector(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]

    def test_requires_1d(self):
        with pytest.raises(DimensionalityError):
            normalize_vector(np.ones((2, 2)))
