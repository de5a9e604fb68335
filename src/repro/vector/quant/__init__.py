"""Quantized vector representation: int8 scalar codes.

The int8 access path trades a bounded amount of score accuracy for a 4x
cut in scanned bytes; the join layer re-ranks candidates in fp32 to
recover exactness (paper Section V-A-2 carried beyond fp16).
"""

from .scalar import Int8Quantizer, int8_dot

__all__ = [
    "Int8Quantizer",
    "int8_dot",
]
