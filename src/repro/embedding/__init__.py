"""Embedding substrate: models, training corpus, cache, registry."""

from .base import EmbeddingModel
from .cache import EmbeddingStore
from .corpus import DEFAULT_TOPICS, generate_corpus, make_misspelling, pluralize
from .fasttext import FastTextModel
from .hashing_model import HashingEmbedder
from .registry import ModelRegistry, default_registry

__all__ = [
    "DEFAULT_TOPICS",
    "EmbeddingModel",
    "EmbeddingStore",
    "FastTextModel",
    "HashingEmbedder",
    "ModelRegistry",
    "default_registry",
    "generate_corpus",
    "make_misspelling",
    "pluralize",
]
