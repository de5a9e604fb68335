"""Tests for n-ary table/column concatenation."""

import numpy as np
import pytest

from repro.errors import SchemaError, TypeMismatchError
from repro.relational import Column, DataType, Field, Schema, Table


@pytest.fixture()
def schema() -> Schema:
    return Schema.of(
        Field("id", DataType.INT64),
        Field("name", DataType.STRING),
        Field("emb", DataType.TENSOR, dim=4),
    )


def make_table(schema: Schema, start: int, n: int) -> Table:
    return Table.from_arrays(
        schema,
        {
            "id": np.arange(start, start + n),
            "name": [f"row{start + i}" for i in range(n)],
            "emb": np.full((n, 4), float(start), dtype=np.float32),
        },
    )


class TestTableConcatAll:
    def test_matches_pairwise_chain(self, schema):
        parts = [make_table(schema, i * 10, 3 + i) for i in range(5)]
        chained = parts[0]
        for part in parts[1:]:
            chained = chained.concat_rows(part)
        merged = Table.concat_all(parts)
        assert merged.num_rows == chained.num_rows
        assert merged.array("id").tolist() == chained.array("id").tolist()
        assert merged.array("name").tolist() == chained.array("name").tolist()
        np.testing.assert_array_equal(
            merged.array("emb"), chained.array("emb")
        )

    def test_single_table_is_identity(self, schema):
        table = make_table(schema, 0, 4)
        assert Table.concat_all([table]) is table

    def test_empty_list_rejected(self):
        with pytest.raises(SchemaError, match="at least one"):
            Table.concat_all([])

    def test_schema_mismatch_rejected(self, schema):
        table = make_table(schema, 0, 2)
        other = table.rename({"id": "key"})
        with pytest.raises(SchemaError, match="cannot concat"):
            Table.concat_all([table, other])

    def test_concat_rows_delegates(self, schema):
        a, b = make_table(schema, 0, 2), make_table(schema, 5, 3)
        out = a.concat_rows(b)
        assert out.num_rows == 5
        assert out.array("id").tolist() == [0, 1, 5, 6, 7]


class TestColumnConcatAll:
    def test_matches_pairwise(self):
        field = Field("x", DataType.FLOAT32)
        cols = [
            Column(field, np.full(i + 1, float(i), dtype=np.float32))
            for i in range(4)
        ]
        merged = Column.concat_all(cols)
        assert len(merged) == sum(len(c) for c in cols)

    def test_type_mismatch_rejected(self):
        a = Column(Field("x", DataType.FLOAT32), np.zeros(2, np.float32))
        b = Column(Field("x", DataType.INT64), np.zeros(2, np.int64))
        with pytest.raises(TypeMismatchError):
            Column.concat_all([a, b])

    def test_empty_rejected(self):
        with pytest.raises(TypeMismatchError, match="at least one"):
            Column.concat_all([])

