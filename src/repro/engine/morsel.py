"""Morsels: fixed-size row ranges as the unit of scheduling.

Morsel-driven execution (Leis et al., SIGMOD'14) decomposes an operator's
input into contiguous tuple ranges, several per worker, so a pool whose
idle workers take the next queued morsel absorbs skew instead of
committing to one static partition per thread.  Both join condition
families here are *per left tuple*, so any morselization of the left
relation preserves exact results; morsels carry a sequence number so
partial results reassemble in deterministic input order regardless of
which worker ran them when.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import JoinError


@dataclass(frozen=True)
class Morsel:
    """A contiguous range ``[start, stop)`` of left-relation rows.

    ``seq`` is the morsel's position in input order; the engine returns
    results in it, making execution order unobservable.
    """

    seq: int
    start: int
    stop: int

    def __len__(self) -> int:
        return self.stop - self.start


def partition_rows(n: int, n_parts: int) -> list[tuple[int, int]]:
    """Split ``[0, n)`` into at most ``n_parts`` balanced contiguous ranges.

    Every range is non-empty and sizes differ by at most one tuple; an
    empty input yields no ranges at all.
    """
    if n_parts < 1:
        raise JoinError(f"n_parts must be >= 1, got {n_parts}")
    if n <= 0:
        return []
    n_parts = min(n_parts, n)
    bounds = np.linspace(0, n, n_parts + 1, dtype=np.int64)
    return [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(n_parts)
        if bounds[i + 1] > bounds[i]
    ]


def make_morsels(n: int, morsel_rows: int) -> list[Morsel]:
    """Cut ``[0, n)`` into morsels of at most ``morsel_rows`` tuples."""
    if morsel_rows < 1:
        raise JoinError(f"morsel_rows must be >= 1, got {morsel_rows}")
    if n <= 0:
        return []
    n_parts = -(-n // morsel_rows)  # ceil division
    return [
        Morsel(seq, start, stop)
        for seq, (start, stop) in enumerate(partition_rows(n, n_parts))
    ]
