"""Unit tests for the EmbeddingModel interface and cost accounting."""

import numpy as np
import pytest

from repro.embedding import EmbeddingModel, HashingEmbedder
from repro.errors import EmbeddingError
from repro.vector.norms import l2_norms


class ConstantModel(EmbeddingModel):
    """Test double returning a fixed pattern."""

    def _embed_batch(self, items):
        out = np.ones((len(items), self.dim), dtype=np.float32)
        for i, item in enumerate(items):
            out[i, 0] = float(hash(str(item)) % 7)
        return out


class BadShapeModel(EmbeddingModel):
    def _embed_batch(self, items):
        return np.ones((len(items), self.dim + 1), dtype=np.float32)


class TestInterface:
    def test_dim_validation(self):
        with pytest.raises(EmbeddingError):
            ConstantModel(0)

    def test_embed_single(self):
        model = ConstantModel(4)
        vec = model.embed("x")
        assert vec.shape == (4,)

    def test_embed_batch_shape(self):
        model = ConstantModel(4)
        out = model.embed_batch(["a", "b", "c"])
        assert out.shape == (3, 4)

    def test_empty_batch(self):
        model = ConstantModel(4)
        out = model.embed_batch([])
        assert out.shape == (0, 4)
        assert model.usage.calls == 0

    def test_output_normalized_by_default(self):
        model = ConstantModel(8)
        out = model.embed_batch(["a", "b"])
        assert np.allclose(l2_norms(out), 1.0, atol=1e-5)

    def test_normalize_disabled(self):
        model = ConstantModel(8, normalize=False)
        out = model.embed_batch(["a"])
        assert not np.allclose(l2_norms(out), 1.0)

    def test_bad_output_shape_rejected(self):
        with pytest.raises(EmbeddingError, match="produced shape"):
            BadShapeModel(4).embed_batch(["a"])

    def test_decode_default_raises(self):
        with pytest.raises(EmbeddingError, match="no decoder"):
            ConstantModel(4).decode(np.ones(4))

    def test_repr(self):
        assert "dim=4" in repr(ConstantModel(4))


class TestUsageAccounting:
    def test_calls_count_per_item(self):
        """The cost model charges M per embedded tuple (Section IV-A)."""
        model = ConstantModel(4)
        model.embed_batch(["a", "b", "c"])
        model.embed("d")
        assert model.usage.calls == 4
        assert model.usage.items == 4

    def test_reset_usage(self):
        model = ConstantModel(4)
        model.embed("a")
        model.reset_usage()
        assert model.usage.calls == 0
        assert model.usage.seconds == 0.0

    def test_seconds_accumulate(self):
        model = ConstantModel(4)
        model.embed_batch(list("abcdef"))
        assert model.usage.seconds > 0

    def test_simulated_latency(self):
        fast = ConstantModel(4)
        slow = ConstantModel(4, simulated_latency_s=0.002)
        fast.embed_batch(["a", "b"])
        slow.embed_batch(["a", "b"])
        assert slow.usage.seconds > fast.usage.seconds
        assert slow.usage.seconds >= 0.004


class TestHashingEmbedderAsModel:
    def test_usage_with_real_model(self):
        model = HashingEmbedder(dim=8)
        model.embed_batch(["hello", "world"])
        assert model.usage.calls == 2
