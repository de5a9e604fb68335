"""Vector compute kernels: cosine similarity, norms, block select, top-k."""

from .kernels import (
    Kernel,
    cosine_matrix_gemm,
    cosine_matrix_vectorized,
    cosine_scalar,
    stable_dot_scores,
)
from .norms import normalize_rows, normalize_vector
from .quant import Int8Quantizer, ProductQuantizer, VectorQuantizer, int8_dot
from .topk import top_k_indices, top_k_per_row

__all__ = [
    "Int8Quantizer",
    "Kernel",
    "ProductQuantizer",
    "VectorQuantizer",
    "int8_dot",
    "cosine_matrix_gemm",
    "cosine_matrix_vectorized",
    "cosine_scalar",
    "normalize_rows",
    "normalize_vector",
    "stable_dot_scores",
    "top_k_indices",
    "top_k_per_row",
]
