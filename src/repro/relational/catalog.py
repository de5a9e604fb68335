"""Table catalog: named registry of base tables and their versions.

The optimizer reads a table's cardinality from here (the E-join side
swap); a filter's selectivity is measured from its pre-filter bitmap when
the planner prices an access path, never estimated from column statistics.
Every registration bumps the table's version, which keys the service's
result cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SchemaError
from .table import Table


@dataclass(frozen=True)
class ShardMap:
    """Contiguous row-range partitioning of one registered table version.

    Extends the catalog's per-table versioning down to row ranges: the map
    is valid exactly as long as ``catalog.version(table_name) == version``,
    so anything holding shard-local state (published shared-memory
    segments, per-shard heaps) can key on ``(table_name, version,
    n_shards)`` and be invalidated by re-registration for free.

    Ranges are half-open ``[start, stop)``, cover ``[0, n_rows)`` exactly
    once in ascending order, and are balanced to within one row — so a
    shard-by-shard scan visits rows in the same ascending order as a
    serial scan, which is what keeps merged tie-breaks bit-identical.
    """

    table_name: str
    version: int
    n_rows: int
    ranges: tuple[tuple[int, int], ...]

    @property
    def n_shards(self) -> int:
        return len(self.ranges)

    @classmethod
    def build(
        cls, table_name: str, version: int, n_rows: int, n_shards: int
    ) -> "ShardMap":
        if n_shards < 1:
            raise SchemaError(f"n_shards must be >= 1, got {n_shards}")
        if n_rows < 0:
            raise SchemaError(f"n_rows must be >= 0, got {n_rows}")
        bounds = np.linspace(0, n_rows, n_shards + 1).astype(np.int64)
        ranges = tuple(
            (int(bounds[i]), int(bounds[i + 1])) for i in range(n_shards)
        )
        return cls(
            table_name=table_name,
            version=version,
            n_rows=n_rows,
            ranges=ranges,
        )


class Catalog:
    """Named registry of base tables."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._versions: dict[str, int] = {}

    def register(self, name: str, table: Table, *, replace: bool = False) -> None:
        if name in self._tables and not replace:
            raise SchemaError(f"table {name!r} already registered")
        self._tables[name] = table
        # Monotonic per-name version: never reset on drop, so any cache
        # keyed by (name, version) is invalidated by re-registration even
        # through a drop/register cycle.
        self._versions[name] = self._versions.get(name, 0) + 1

    def version(self, name: str) -> int:
        """Registration version of ``name`` (bumped on every register)."""
        self.get(name)  # raise on unknown tables
        return self._versions[name]

    def drop(self, name: str) -> None:
        if name not in self._tables:
            raise SchemaError(f"table {name!r} is not registered")
        del self._tables[name]

    def get(self, name: str) -> Table:
        if name not in self._tables:
            raise SchemaError(
                f"unknown table {name!r}; have {sorted(self._tables)}"
            )
        return self._tables[name]

    def cardinality(self, name: str) -> int:
        return self.get(name).num_rows

    def names(self) -> list[str]:
        return sorted(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables
