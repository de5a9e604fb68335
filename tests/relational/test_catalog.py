"""Unit tests for the table catalog and statistics."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.relational import Catalog, DataType, Field, Schema, Table
from repro.relational.catalog import ColumnStats


@pytest.fixture()
def catalog(people_table):
    cat = Catalog()
    cat.register("people", people_table)
    return cat


class TestCatalog:
    def test_register_and_get(self, catalog, people_table):
        assert catalog.get("people") is people_table
        assert "people" in catalog
        assert catalog.names() == ["people"]

    def test_duplicate_register(self, catalog, people_table):
        with pytest.raises(SchemaError, match="already registered"):
            catalog.register("people", people_table)
        catalog.register("people", people_table, replace=True)

    def test_unknown_table(self, catalog):
        with pytest.raises(SchemaError, match="unknown table"):
            catalog.get("nope")

    def test_drop(self, catalog):
        catalog.drop("people")
        assert "people" not in catalog
        with pytest.raises(SchemaError):
            catalog.drop("people")

    def test_cardinality(self, catalog):
        assert catalog.cardinality("people") == 5


class TestColumnStats:
    def test_numeric_stats(self, catalog):
        stats = catalog.entry("people").column_stats("age")
        assert stats.min_value == 29
        assert stats.max_value == 52
        assert stats.n_distinct == 4

    def test_string_stats(self, catalog):
        stats = catalog.entry("people").column_stats("name")
        assert stats.n_distinct == 5
        assert stats.min_value is None

    def test_tensor_stats(self):
        schema = Schema.of(Field("v", DataType.TENSOR, dim=2))
        t = Table.from_arrays(schema, {"v": np.zeros((4, 2))})
        stats = ColumnStats.compute(t, "v")
        assert stats.n_distinct == 4

    def test_empty_column(self):
        schema = Schema.of(Field("x", DataType.INT64))
        stats = ColumnStats.compute(Table.empty(schema), "x")
        assert stats.n_distinct == 0

    def test_stats_cached(self, catalog):
        entry = catalog.entry("people")
        a = entry.column_stats("age")
        assert entry.column_stats("age") is a


class TestRangeSelectivity:
    def test_full_range(self):
        stats = ColumnStats(n_distinct=10, min_value=0, max_value=100)
        assert stats.estimate_range_selectivity(None, None) == 1.0

    def test_half_range(self):
        stats = ColumnStats(n_distinct=10, min_value=0, max_value=100)
        assert stats.estimate_range_selectivity(0, 50) == pytest.approx(0.5)

    def test_disjoint_range(self):
        stats = ColumnStats(n_distinct=10, min_value=0, max_value=100)
        assert stats.estimate_range_selectivity(200, 300) == 0.0

    def test_no_stats_means_one(self):
        stats = ColumnStats(n_distinct=10)
        assert stats.estimate_range_selectivity(0, 1) == 1.0

    def test_degenerate_span(self):
        stats = ColumnStats(n_distinct=1, min_value=5, max_value=5)
        assert stats.estimate_range_selectivity(0, 10) == 1.0
