"""Unit tests for the model registry."""

import pytest

from repro.algebra import ExecutionContext
from repro.embedding import HashingEmbedder, ModelRegistry
from repro.errors import EmbeddingError
from repro.relational import Catalog


class TestRegistry:
    def test_register_and_get(self):
        reg = ModelRegistry()
        model = HashingEmbedder(dim=8)
        reg.register("m", model)
        assert reg.get("m") is model
        assert "m" in reg
        assert reg.names() == ["m"]

    def test_duplicate_rejected(self):
        reg = ModelRegistry()
        reg.register("m", HashingEmbedder(dim=8))
        with pytest.raises(EmbeddingError, match="already registered"):
            reg.register("m", HashingEmbedder(dim=8))

    def test_replace(self):
        reg = ModelRegistry()
        reg.register("m", HashingEmbedder(dim=8))
        bigger = HashingEmbedder(dim=16)
        reg.register("m", bigger, replace=True)
        assert reg.get("m") is bigger

    def test_unknown_model(self):
        reg = ModelRegistry()
        with pytest.raises(EmbeddingError, match="unknown model"):
            reg.get("nope")

    def test_contexts_built_without_models_share_no_registry(self):
        """A context's default registry is its own: a model registered
        through one context is unknown to another."""
        first, second = ExecutionContext(Catalog()), ExecutionContext(Catalog())
        first.models.register("m", HashingEmbedder(dim=8))
        assert "m" not in second.models
        with pytest.raises(EmbeddingError, match="unknown model"):
            second.embed_store_for("m")
