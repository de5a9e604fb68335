"""Seeded synthetic workload generators."""

from .strings import DirtyStringWorkload, generate_dirty_strings
from .synthetic import (
    embedding_like_vectors,
    paired_relations,
    random_vectors,
    unit_vectors,
)

__all__ = [
    "DirtyStringWorkload",
    "embedding_like_vectors",
    "generate_dirty_strings",
    "paired_relations",
    "random_vectors",
    "unit_vectors",
]
