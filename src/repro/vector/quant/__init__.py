"""Quantized vector representations: int8 scalar and product quantization.

Compressed access paths trade a bounded amount of score accuracy for a
4-32x cut in scanned bytes; the join/index layers re-rank candidates in
fp32 to recover exactness where it matters (paper Section V-A-2 carried
beyond fp16).
"""

from .base import VectorQuantizer
from .pq import ProductQuantizer
from .scalar import Int8Quantizer, int8_dot

__all__ = [
    "Int8Quantizer",
    "ProductQuantizer",
    "VectorQuantizer",
    "int8_dot",
]
