"""Seeded synthetic vector workloads.

The paper's scalability experiments use synthetic in-memory data with a
fixed RNG seed (Section VI).  Generators here are deterministic per
(stream, parameters) and produce float32, GEMM-ready matrices.
"""

from __future__ import annotations

import numpy as np

from ..config import get_config
from ..errors import WorkloadError
from ..vector.norms import normalize_rows


def random_vectors(
    n: int, dim: int, *, stream: str = "vectors", seed: int | None = None
) -> np.ndarray:
    """IID standard-normal vectors, ``(n, dim)`` float32."""
    if n < 0 or dim <= 0:
        raise WorkloadError(f"invalid shape ({n}, {dim})")
    rng = (
        np.random.default_rng(seed)
        if seed is not None
        else get_config().rng(stream)
    )
    return rng.standard_normal((n, dim)).astype(np.float32)


def unit_vectors(
    n: int, dim: int, *, stream: str = "unit-vectors", seed: int | None = None
) -> np.ndarray:
    """Uniformly-distributed unit vectors (normalized Gaussians)."""
    return normalize_rows(random_vectors(n, dim, stream=stream, seed=seed))


def clustered_vectors(
    n: int,
    dim: int,
    *,
    n_clusters: int = 16,
    noise: float = 0.15,
    stream: str = "clustered",
    seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectors drawn around ``n_clusters`` random centroids.

    Returns ``(vectors, labels)``.  Intra-cluster cosine similarity is high
    (controlled by ``noise``), inter-cluster low — giving similarity joins
    a controllable, non-trivial match structure (real embeddings are
    clustered, not uniform).
    """
    if n_clusters < 1:
        raise WorkloadError(f"n_clusters must be >= 1, got {n_clusters}")
    if noise < 0:
        raise WorkloadError(f"noise must be >= 0, got {noise}")
    rng = (
        np.random.default_rng(seed)
        if seed is not None
        else get_config().rng(stream)
    )
    centroids = normalize_rows(
        rng.standard_normal((n_clusters, dim)).astype(np.float32)
    )
    labels = rng.integers(n_clusters, size=n)
    vectors = centroids[labels] + noise * rng.standard_normal(
        (n, dim)
    ).astype(np.float32)
    return normalize_rows(vectors), labels.astype(np.int64)


def embedding_like_vectors(
    n: int,
    dim: int,
    *,
    rank: int = 48,
    n_clusters: int = 128,
    noise: float = 0.25,
    spectrum_decay: float = 0.75,
    stream: str = "embedding-like",
    seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectors mimicking real embedding geometry: clustered, low-rank,
    power-law spectrum.

    Trained embeddings concentrate variance in a few leading directions
    (a decaying singular spectrum) and live near a low-dimensional,
    clustered manifold — the structure indexes and cap bounds exploit (a
    flat isotropic cloud is their worst case: every row then scores alike
    against every probe).  Vectors
    are drawn around ``n_clusters`` centroids in a ``rank``-dimensional
    latent space whose axes are scaled ``(i + 1) ** -spectrum_decay``,
    then rotated into ``dim`` dimensions and unit-normalized.

    Returns ``(vectors, labels)``.
    """
    if not 1 <= rank <= dim:
        raise WorkloadError(f"rank must be in [1, {dim}], got {rank}")
    if n_clusters < 1:
        raise WorkloadError(f"n_clusters must be >= 1, got {n_clusters}")
    if noise < 0:
        raise WorkloadError(f"noise must be >= 0, got {noise}")
    rng = (
        np.random.default_rng(seed)
        if seed is not None
        else get_config().rng(stream)
    )
    spectrum = ((np.arange(rank) + 1.0) ** -spectrum_decay).astype(np.float32)
    centroids = normalize_rows(
        rng.standard_normal((n_clusters, rank)).astype(np.float32) * spectrum
    )
    labels = rng.integers(n_clusters, size=n)
    latent = centroids[labels] + (
        noise / np.sqrt(rank)
    ) * rng.standard_normal((n, rank)).astype(np.float32) * spectrum
    # Random orthonormal rotation embeds the latent manifold in dim-space.
    basis, _ = np.linalg.qr(rng.standard_normal((dim, rank)))
    return (
        normalize_rows(latent @ basis.T.astype(np.float32)),
        labels.astype(np.int64),
    )


def paired_relations(
    n_left: int,
    n_right: int,
    dim: int,
    *,
    overlap: float = 0.1,
    noise: float = 0.02,
    stream: str = "paired",
    seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray, set[tuple[int, int]]]:
    """Two relations where a fraction of left rows have a near-duplicate
    in right (ground truth returned).

    Used by dedup / data-integration examples: ``overlap`` of the left rows
    are noisy copies of distinct right rows.
    """
    if not 0.0 <= overlap <= 1.0:
        raise WorkloadError(f"overlap must be in [0,1], got {overlap}")
    rng = (
        np.random.default_rng(seed)
        if seed is not None
        else get_config().rng(stream)
    )
    right = normalize_rows(
        rng.standard_normal((n_right, dim)).astype(np.float32)
    )
    left = normalize_rows(rng.standard_normal((n_left, dim)).astype(np.float32))
    n_dupes = int(round(overlap * n_left))
    truth: set[tuple[int, int]] = set()
    if n_dupes and n_right:
        left_ids = rng.choice(n_left, size=n_dupes, replace=False)
        right_ids = rng.choice(n_right, size=n_dupes, replace=n_dupes > n_right)
        for li, ri in zip(left_ids.tolist(), right_ids.tolist()):
            left[li] = right[ri] + noise * rng.standard_normal(dim).astype(
                np.float32
            )
            truth.add((int(li), int(ri)))
        left = normalize_rows(left)
    return left, right, truth
