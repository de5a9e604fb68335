"""Typed columnar storage.

A :class:`Column` pairs a :class:`~repro.relational.schema.Field` with its
physical data.  Scalar columns are 1-D NumPy arrays; ``TENSOR`` columns are
2-D ``(n_rows, dim)`` float32 matrices so the tensor-join can hand them to
BLAS without copying; ``STRING``/``CONTEXT`` columns are object arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import date, datetime

import numpy as np

from ..errors import SchemaError, TypeMismatchError
from .schema import DataType, Field

_EPOCH = date(1970, 1, 1)


def date_to_days(value: date | datetime | str | int) -> int:
    """Convert a date-like value to int64 days since the Unix epoch."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, datetime):
        value = value.date()
    if isinstance(value, str):
        value = date.fromisoformat(value)
    if not isinstance(value, date):
        raise TypeMismatchError(f"cannot interpret {value!r} as a date")
    return (value - _EPOCH).days


def days_to_date(days: int) -> date:
    """Inverse of :func:`date_to_days`."""
    return date.fromordinal(_EPOCH.toordinal() + int(days))


def coerce_values(field: Field, values) -> np.ndarray:
    """Coerce a Python/NumPy sequence into this field's physical layout.

    Raises :class:`TypeMismatchError` for layouts that cannot represent the
    declared type (e.g. a 1-D array for a tensor column).
    """
    dtype = field.dtype
    if dtype is DataType.TENSOR:
        arr = np.asarray(values, dtype=np.float32)
        if arr.ndim != 2:
            raise TypeMismatchError(
                f"tensor column {field.name!r} expects a 2-D array, got ndim={arr.ndim}"
            )
        if arr.shape[1] != field.dim:
            raise TypeMismatchError(
                f"tensor column {field.name!r} expects dim={field.dim}, "
                f"got {arr.shape[1]}"
            )
        return np.ascontiguousarray(arr)
    if dtype is DataType.DATE:
        if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
            return values.astype(np.int64)
        return np.asarray([date_to_days(v) for v in values], dtype=np.int64)
    if dtype in (DataType.STRING, DataType.CONTEXT):
        arr = np.empty(len(values), dtype=object)
        arr[:] = list(values)
        return arr
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise TypeMismatchError(
            f"scalar column {field.name!r} expects a 1-D array, got ndim={arr.ndim}"
        )
    try:
        return arr.astype(dtype.numpy_dtype, casting="same_kind", copy=False)
    except TypeError:
        # Integral literals into float columns and similar benign widenings.
        return arr.astype(dtype.numpy_dtype)


@dataclass
class Column:
    """A named, typed column of values."""

    field: Field
    data: np.ndarray

    def __post_init__(self) -> None:
        self.data = coerce_values(self.field, self.data)

    @classmethod
    def _typed(cls, field: Field, data: np.ndarray) -> "Column":
        """A column of ``data`` already in ``field``'s layout (rows of a
        column's data): no coercion."""
        column = object.__new__(cls)
        column.field, column.data = field, data
        return column

    @classmethod
    def from_values(cls, name: str, dtype: DataType, values, *, dim: int = 0) -> "Column":
        return cls(Field(name, dtype, dim=dim), values)

    @property
    def name(self) -> str:
        return self.field.name

    @property
    def dtype(self) -> DataType:
        return self.field.dtype

    def __len__(self) -> int:
        return len(self.data)

    def take(self, indices: np.ndarray) -> "Column":
        """Row-subset by integer positions (late materialization helper)."""
        return Column._typed(self.field, self.data[np.asarray(indices)])

    def mask(self, bitmap: np.ndarray) -> "Column":
        """Row-subset by boolean bitmap."""
        bitmap = np.asarray(bitmap, dtype=bool)
        if len(bitmap) != len(self):
            raise SchemaError(
                f"bitmap length {len(bitmap)} != column length {len(self)}"
            )
        return Column._typed(self.field, self.data[bitmap])

    def rename(self, name: str) -> "Column":
        return Column._typed(replace(self.field, name=name), self.data)

    def concat(self, other: "Column") -> "Column":
        return Column.concat_all([self, other])

    @classmethod
    def concat_all(cls, columns: "list[Column]") -> "Column":
        """Concatenate many same-typed columns in one allocation.

        The n-ary form of :meth:`concat`: one ``np.concatenate`` instead
        of a quadratic chain of pairwise copies.
        """
        if not columns:
            raise TypeMismatchError("concat_all needs at least one column")
        first = columns[0].field
        for col in columns[1:]:
            if col.field.dtype is not first.dtype or col.field.dim != first.dim:
                raise TypeMismatchError(
                    f"cannot concat {first} with {col.field}"
                )
        return Column(first, np.concatenate([c.data for c in columns]))

    def nbytes(self) -> int:
        """Approximate memory footprint in bytes."""
        if self.data.dtype == object:
            return int(sum(len(str(v)) for v in self.data)) + 8 * len(self.data)
        return int(self.data.nbytes)

    def to_pylist(self) -> list:
        """Materialise as a Python list (dates decoded)."""
        if self.dtype is DataType.DATE:
            return [days_to_date(v) for v in self.data]
        if self.dtype is DataType.TENSOR:
            return [row.copy() for row in self.data]
        return self.data.tolist()
