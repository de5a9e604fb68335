"""Schema definitions for the relational substrate.

A :class:`Schema` is an ordered collection of :class:`Field` objects.  The
engine supports the classic atomic types plus two extensions the paper
requires:

* ``TENSOR`` — fixed-dimensionality embedding vectors.  Following Section IV
  of the paper, tensors are *atomic* from the DBMS's point of view (1NF is
  preserved: the engine never decomposes them except inside dedicated vector
  kernels).
* ``CONTEXT`` — context-rich payloads (strings, serialized blobs) that are
  opaque to relational predicates but can be mapped to ``TENSOR`` via an
  embedding operator ``E_mu``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import SchemaError


class DataType(enum.Enum):
    """Logical column types understood by the engine."""

    INT64 = "int64"
    FLOAT32 = "float32"
    FLOAT64 = "float64"
    BOOL = "bool"
    DATE = "date"       # stored as int64 days-since-epoch
    STRING = "string"   # context-rich, object-backed
    TENSOR = "tensor"   # fixed-dim float32 vectors
    CONTEXT = "context" # opaque context-rich payloads (non-string blobs)

    @property
    def numpy_dtype(self) -> np.dtype:
        """Physical NumPy dtype used to store values of this type."""
        return _NUMPY_DTYPES[self._value_]

    @property
    def is_numeric(self) -> bool:
        return self in (
            DataType.INT64,
            DataType.FLOAT32,
            DataType.FLOAT64,
            DataType.DATE,
        )

    @property
    def is_context_rich(self) -> bool:
        """True for types opaque to relational predicates (need a model)."""
        return self in (DataType.STRING, DataType.CONTEXT)


#: Each type's physical dtype by its value (a member hashes in Python, a string in C).
_NUMPY_DTYPES = {
    **{name: np.dtype(name) for name in ("int64", "float32", "float64", "bool")},
    "date": np.dtype(np.int64), "tensor": np.dtype(np.float32),
    "string": np.dtype(object), "context": np.dtype(object),
}


@dataclass(frozen=True)
class Field:
    """A named, typed column descriptor.

    Attributes:
        name: Column name, unique within a schema.
        dtype: Logical type.
        dim: Dimensionality for ``TENSOR`` columns (ignored otherwise).
        nullable: Whether NULLs may appear (stored as NaN / None sentinels).
    """

    name: str
    dtype: DataType
    dim: int = 0
    nullable: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("field name must be non-empty")
        if self.dtype is DataType.TENSOR and self.dim <= 0:
            raise SchemaError(
                f"tensor field {self.name!r} requires a positive dim, got {self.dim}"
            )
        if self.dtype is not DataType.TENSOR and self.dim:
            raise SchemaError(
                f"non-tensor field {self.name!r} must not declare dim={self.dim}"
            )


@dataclass(frozen=True)
class Schema:
    """Ordered, name-unique collection of fields."""

    fields: tuple[Field, ...] = field(default_factory=tuple)
    #: The fields' names, in order.
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    #: Each name's position in ``fields``.
    _positions: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = tuple([f.name for f in self.fields])
        positions = {name: i for i, name in enumerate(names)}
        if len(positions) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate column names in schema: {dupes}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_positions", positions)

    @classmethod
    def of(cls, *fields: Field) -> "Schema":
        return cls(tuple(fields))

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self):
        return iter(self.fields)

    def __contains__(self, name: str) -> bool:
        return name in self._positions

    def field(self, name: str) -> Field:
        """Look up a field by name, raising :class:`SchemaError` if absent."""
        return self.fields[self.index_of(name)]

    def index_of(self, name: str) -> int:
        position = self._positions.get(name)
        if position is None:
            raise SchemaError(f"unknown column {name!r}; have {list(self.names)}")
        return position

    def select(self, names: list[str] | tuple[str, ...]) -> "Schema":
        """Projection: a new schema with the given columns, in given order."""
        return Schema(tuple(self.field(n) for n in names))

    def add(self, new_field: Field) -> "Schema":
        """Return a schema extended with one more field."""
        if new_field.name in self:
            raise SchemaError(f"column {new_field.name!r} already exists")
        return Schema(self.fields + (new_field,))

    def drop(self, name: str) -> "Schema":
        self.field(name)  # validate existence
        return Schema(tuple(f for f in self.fields if f.name != name))

    def rename(self, mapping: dict[str, str]) -> "Schema":
        """Return a schema with columns renamed per ``mapping``."""
        for old in mapping:
            self.field(old)
        return Schema(tuple(replace(f, name=mapping.get(f.name, f.name)) for f in self.fields))

    def concat(self, other: "Schema", *, prefixes: tuple[str, str] | None = None) -> "Schema":
        """Schema of a join output.

        Overlapping names are disambiguated with ``prefixes`` (e.g.
        ``("l_", "r_")``); without prefixes an overlap raises.
        """
        overlap = set(self.names) & set(other.names)
        if overlap and prefixes is None:
            raise SchemaError(f"join schemas overlap on {sorted(overlap)}; provide prefixes")
        sides = zip(prefixes or ("", ""), (self.fields, other.fields))
        return Schema(tuple(
            replace(f, name=prefix + f.name) if f.name in overlap else f
            for prefix, fields in sides for f in fields
        ))
