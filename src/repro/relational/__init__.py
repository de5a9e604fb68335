"""Relational engine substrate: columnar tables, expressions, catalog."""

from .catalog import Catalog
from .column import Column, date_to_days
from .expressions import Col, Expression, selectivity
from .schema import DataType, Field, Schema
from .table import Table

__all__ = [
    "Catalog",
    "Col",
    "Column",
    "DataType",
    "Expression",
    "Field",
    "Schema",
    "Table",
    "date_to_days",
    "selectivity",
]
