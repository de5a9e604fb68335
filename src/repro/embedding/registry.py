"""Named registry of embedding models.

The declarative query layer references models by name ("specify the
embedding model and a threshold", Section III-B); the registry resolves
those names at planning time.
"""

from __future__ import annotations

from ..errors import EmbeddingError
from .base import EmbeddingModel


class ModelRegistry:
    """Process-local name → model mapping."""

    def __init__(self) -> None:
        self._models: dict[str, EmbeddingModel] = {}
        #: Counter of registrations: a replaced model changes every answer
        #: that embeds under its name (a result-cache key component).
        self.epoch = 0

    def register(
        self, name: str, model: EmbeddingModel, *, replace: bool = False
    ) -> None:
        if name in self._models and not replace:
            raise EmbeddingError(f"model {name!r} already registered")
        self._models[name] = model
        self.epoch += 1

    def get(self, name: str) -> EmbeddingModel:
        if name not in self._models:
            raise EmbeddingError(
                f"unknown model {name!r}; have {sorted(self._models)}"
            )
        return self._models[name]

    def names(self) -> list[str]:
        return sorted(self._models)

    def __contains__(self, name: str) -> bool:
        return name in self._models


_default_registry = ModelRegistry()


def default_registry() -> ModelRegistry:
    """The process-wide default registry."""
    return _default_registry
