"""Vector index substrate: flat exact index and from-scratch HNSW."""

from .base import SearchResult, VectorIndex
from .flat import FlatIndex
from .ivf import IVFFlatIndex, kmeans
from .hnsw import HNSWIndex

__all__ = [
    "FlatIndex",
    "HNSWIndex",
    "IVFFlatIndex",
    "kmeans",
    "SearchResult",
    "VectorIndex",
]
