"""Sharded multiprocess execution: scale the shared scan past the GIL.

Partitions base tables into contiguous per-shard row ranges
(:class:`~repro.relational.catalog.ShardMap`), publishes scan-ready
column stores into ``multiprocessing.shared_memory`` segments mapped as
zero-copy numpy views, and fans the coalesced shared scan out across a
persistent pool of spawn-safe worker processes.  Workers return bounded
per-query heaps; the front door merges them under a total order and
exact-rescores, so sharded results are bit-identical to serial.
"""

from .pool import ShardPool
from .store import leaked_segments, segment_prefix

__all__ = [
    "ShardPool",
    "leaked_segments",
    "segment_prefix",
]
