"""Columnar in-memory tables.

:class:`Table` is the engine's unit of data exchange: operators consume and
produce tables.  Storage is column-major so relational predicates run as
vectorized NumPy expressions and tensor columns feed directly into BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SchemaError, TypeMismatchError
from .column import Column
from .schema import DataType, Schema


@dataclass
class Table:
    """An immutable-by-convention columnar table."""

    schema: Schema
    columns: dict[str, Column]

    def __post_init__(self) -> None:
        if set(self.columns) != set(self.schema.names):
            raise SchemaError(
                f"columns {sorted(self.columns)} do not match schema "
                f"{list(self.schema.names)}"
            )
        lengths = {name: len(col) for name, col in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise SchemaError(f"ragged column lengths: {lengths}")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def _derived(cls, schema: Schema, columns: dict[str, Column]) -> "Table":
        """A table of ``columns`` derived from a valid table's: named as in
        ``schema``, of one length, in its fields' layouts — nothing to check."""
        table = object.__new__(cls)
        table.schema, table.columns = schema, columns
        return table

    @classmethod
    def from_columns(cls, columns: list[Column]) -> "Table":
        schema = Schema(tuple(c.field for c in columns))
        return cls(schema, {c.name: c for c in columns})

    @classmethod
    def from_arrays(cls, schema: Schema, arrays: dict[str, np.ndarray]) -> "Table":
        return cls(schema, {f.name: Column(f, arrays[f.name]) for f in schema})

    @classmethod
    def from_dicts(cls, schema: Schema, rows: list[dict]) -> "Table":
        """Build from row dictionaries (convenience for tests/examples)."""
        arrays = {}
        for f in schema:
            values = [row[f.name] for row in rows]
            if f.dtype is DataType.TENSOR:
                values = np.asarray(values, dtype=np.float32).reshape(
                    len(rows), f.dim
                )
            arrays[f.name] = values
        return cls.from_arrays(schema, arrays)

    @classmethod
    def empty(cls, schema: Schema) -> "Table":
        return cls.from_arrays(schema, {
            f.name: np.empty((0, f.dim) if f.dtype is DataType.TENSOR else 0, f.dtype.numpy_dtype)
            for f in schema
        })

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        if not self.schema.fields:
            return 0
        return len(self.columns[self.schema.names[0]])

    def __len__(self) -> int:
        return self.num_rows

    def column(self, name: str) -> Column:
        if name not in self.columns:
            raise SchemaError(
                f"unknown column {name!r}; have {list(self.schema.names)}"
            )
        return self.columns[name]

    def array(self, name: str) -> np.ndarray:
        """Raw physical array of a column (no copy)."""
        return self.column(name).data

    def nbytes(self) -> int:
        return sum(col.nbytes() for col in self.columns.values())

    def row(self, i: int) -> dict:
        """Materialise one row as a dict (debug/example helper)."""
        if not 0 <= i < self.num_rows:
            raise IndexError(f"row {i} out of range [0, {self.num_rows})")
        return {name: self.columns[name].data[i] for name in self.schema.names}

    def to_dicts(self) -> list[dict]:
        names = self.schema.names
        cols = [self.columns[n].to_pylist() for n in names]
        return [dict(zip(names, values)) for values in zip(*cols)] if names else []

    # ------------------------------------------------------------------
    # Row-level operations (positional)
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "Table":
        indices = np.asarray(indices)
        return Table._derived(
            self.schema,
            {name: col.take(indices) for name, col in self.columns.items()},
        )

    def mask(self, bitmap: np.ndarray) -> "Table":
        return Table._derived(
            self.schema,
            {name: col.mask(bitmap) for name, col in self.columns.items()},
        )

    def slice(self, start: int, stop: int) -> "Table":
        idx = np.arange(max(start, 0), min(stop, self.num_rows))
        return self.take(idx)

    def head(self, n: int = 5) -> "Table":
        return self.slice(0, n)

    # ------------------------------------------------------------------
    # Column-level operations
    # ------------------------------------------------------------------
    def select(self, names: list[str]) -> "Table":
        schema = self.schema.select(names)
        return Table._derived(schema, {n: self.columns[n] for n in names})

    def with_column(self, column: Column) -> "Table":
        """Return a table with one more column appended."""
        schema = self.schema.add(column.field)  # a name already there raises
        if self.schema.fields and len(column) != self.num_rows:
            raise SchemaError(
                f"column length {len(column)} != table length {self.num_rows}"
            )
        return Table._derived(schema, {**self.columns, column.name: column})

    def drop(self, name: str) -> "Table":
        schema = self.schema.drop(name)
        cols = {n: c for n, c in self.columns.items() if n != name}
        return Table(schema, cols)

    def rename(self, mapping: dict[str, str]) -> "Table":
        schema = self.schema.rename(mapping)
        cols = {
            mapping.get(n, n): c.rename(mapping.get(n, n))
            for n, c in self.columns.items()
        }
        return Table(schema, cols)

    # ------------------------------------------------------------------
    # Table-level operations
    # ------------------------------------------------------------------
    def concat_rows(self, other: "Table") -> "Table":
        return Table.concat_all([self, other])

    @classmethod
    def concat_all(cls, tables: "list[Table]") -> "Table":
        """Vertically concatenate many same-schema tables at once.

        Each column is assembled with a single ``np.concatenate`` over all
        parts, so materializing ``n`` operator batches costs one copy of
        the data instead of the quadratic pairwise-concat chain.
        """
        if not tables:
            raise SchemaError("concat_all needs at least one table")
        first = tables[0]
        for other in tables[1:]:
            if other.schema.names != first.schema.names:
                raise SchemaError(
                    f"cannot concat tables with schemas {first.schema.names} "
                    f"and {other.schema.names}"
                )
        if len(tables) == 1:
            return first
        cols = {
            name: Column.concat_all([t.columns[name] for t in tables])
            for name in first.schema.names
        }
        return Table(first.schema, cols)

    def zip_columns(
        self, other: "Table", *, prefixes: tuple[str, str] = ("l_", "r_")
    ) -> "Table":
        """Horizontally combine equal-length tables (join materialization)."""
        if self.num_rows != other.num_rows:
            raise SchemaError(
                f"cannot zip tables of lengths {self.num_rows} and {other.num_rows}"
            )
        schema = self.schema.concat(other.schema, prefixes=prefixes)
        overlap = set(self.schema.names) & set(other.schema.names)
        cols: dict[str, Column] = {}
        for name in self.schema.names:
            out = prefixes[0] + name if name in overlap else name
            cols[out] = self.columns[name].rename(out)
        for name in other.schema.names:
            out = prefixes[1] + name if name in overlap else name
            cols[out] = other.columns[name].rename(out)
        return Table(schema, cols)

    def equi_join(
        self,
        other: "Table",
        left_key: str,
        right_key: str,
    ) -> "Table":
        """Hash equi-join: build on ``other``, probe with ``self``.

        Output is left-major with each left row's matches in ascending
        right position; overlapping names take ``l_`` / ``r_``.  Similarity
        predicates over embeddings need pairwise comparison, not hashing
        (paper Section IV-A), so tensor keys are rejected.
        """
        for table, key in ((self, left_key), (other, right_key)):
            if table.schema.field(key).dtype is DataType.TENSOR:
                raise TypeMismatchError(
                    "equi-join over tensor keys is not meaningful; use an "
                    "E-join (similarity) operator instead"
                )
        positions: dict[object, list[int]] = {}
        for j, key in enumerate(other.array(right_key)):
            positions.setdefault(key, []).append(j)
        left_idx: list[int] = []
        right_idx: list[int] = []
        for i, key in enumerate(self.array(left_key)):
            matches = positions.get(key, ())
            left_idx.extend([i] * len(matches))
            right_idx.extend(matches)
        return self.take(np.asarray(left_idx, dtype=np.intp)).zip_columns(
            other.take(np.asarray(right_idx, dtype=np.intp))
        )

    def sort_by(self, name: str, *, descending: bool = False) -> "Table":
        col = self.column(name)
        if col.dtype in (DataType.STRING, DataType.CONTEXT):
            order = np.argsort(np.asarray([str(v) for v in col.data]), kind="stable")
        elif col.dtype is DataType.TENSOR:
            raise TypeMismatchError("cannot sort by a tensor column")
        else:
            order = np.argsort(col.data, kind="stable")
        if descending:
            order = order[::-1]
        return self.take(order)

    def __repr__(self) -> str:
        cols = ", ".join(
            f"{f.name}:{f.dtype.value}" + (f"[{f.dim}]" if f.dim else "")
            for f in self.schema
        )
        return f"Table({self.num_rows} rows; {cols})"
