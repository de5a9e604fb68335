"""Unit tests for the table catalog."""

import pytest

from repro.errors import SchemaError
from repro.relational import Catalog


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


class TestVersion:
    def test_every_register_bumps_the_version(self, catalog, people_table):
        assert catalog.version("people") == 1
        catalog.register("people", people_table, replace=True)
        assert catalog.version("people") == 2

    def test_a_drop_does_not_reset_the_version(self, catalog, people_table):
        """A result cache keyed by ``(name, version)`` must miss after a
        drop/register cycle, so the count carries over the drop."""
        catalog.drop("people")
        with pytest.raises(SchemaError, match="unknown table"):
            catalog.version("people")
        catalog.register("people", people_table)
        assert catalog.version("people") == 2
