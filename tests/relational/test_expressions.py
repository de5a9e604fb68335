"""Unit tests for expression evaluation."""

from datetime import date

import numpy as np
import pytest

from repro.errors import ExpressionError
from repro.relational import Col, DataType, Field, Schema, Table, selectivity
from repro.relational.expressions import (
    Literal,
    lift,
    validate_boolean,
)


@pytest.fixture()
def table(people_table):
    return people_table


class TestComparisons:
    @pytest.mark.parametrize(
        "expr_fn,expected",
        [
            (lambda: Col("age") > 36, [False, True, False, False, True]),
            (lambda: Col("age") >= 36, [True, True, False, True, True]),
            (lambda: Col("age") < 36, [False, False, True, False, False]),
            (lambda: Col("age") <= 36, [True, False, True, True, False]),
            (lambda: Col("age") == 36, [True, False, False, True, False]),
            (lambda: Col("age") != 36, [False, True, True, False, True]),
        ],
    )
    def test_numeric_comparisons(self, table, expr_fn, expected):
        assert expr_fn().evaluate(table).tolist() == expected

    def test_column_vs_column(self, table):
        bitmap = (Col("age") > Col("score")).evaluate(table)
        assert bitmap.all()

    def test_string_equality(self, table):
        bitmap = (Col("name") == "bob").evaluate(table)
        assert bitmap.tolist() == [False, True, False, False, False]

    def test_columns_tracked(self):
        expr = (Col("a") > 1) & (Col("b") == Col("c"))
        assert expr.columns() == {"a", "b", "c"}


class TestDates:
    def make(self):
        schema = Schema.of(Field("d", DataType.DATE))
        return Table.from_arrays(
            schema, {"d": [date(2023, 1, 1), date(2023, 6, 1), date(2023, 12, 1)]}
        )

    def test_date_literal_comparison(self):
        bitmap = (Col("d") > date(2023, 3, 1)).evaluate(self.make())
        assert bitmap.tolist() == [False, True, True]

    def test_between(self):
        expr = Col("d").between(date(2023, 2, 1), date(2023, 7, 1))
        assert expr.evaluate(self.make()).tolist() == [False, True, False]

    def test_in_list_with_dates(self):
        expr = Col("d").is_in([date(2023, 1, 1)])
        assert expr.evaluate(self.make()).tolist() == [True, False, False]


class TestBooleanOps:
    def test_and_or_not(self, table):
        both = (Col("age") > 30) & (Col("score") > 7)
        assert both.evaluate(table).tolist() == [True, True, False, False, False]
        either = (Col("age") > 50) | (Col("score") > 9)
        assert either.evaluate(table).tolist() == [True, False, False, False, True]
        negated = ~(Col("age") > 30)
        assert negated.evaluate(table).tolist() == [False, False, True, False, False]


class TestArithmetic:
    def test_add_mul(self, table):
        values = ((Col("age") * 2) + 1).evaluate(table)
        assert values[0] == 73

    def test_div_sub(self, table):
        values = ((Col("score") - 1) / 2).evaluate(table)
        assert values[2] == pytest.approx(3.5)

    def test_arith_in_comparison(self, table):
        bitmap = ((Col("age") + Col("score")) > 48).evaluate(table)
        assert bitmap.tolist() == [False, True, False, False, True]


class TestInList:
    def test_numeric(self, table):
        bitmap = Col("age").is_in([29, 52]).evaluate(table)
        assert bitmap.tolist() == [False, False, True, False, True]

    def test_strings(self, table):
        bitmap = Col("name").is_in(["ada", "eve"]).evaluate(table)
        assert bitmap.tolist() == [True, False, False, False, True]


class TestValidation:
    def test_lift_wraps_plain_values(self):
        assert isinstance(lift(5), Literal)
        col = Col("x")
        assert lift(col) is col

    def test_validate_boolean_rejects_numeric(self, table):
        with pytest.raises(ExpressionError, match="expected bool"):
            validate_boolean(Col("age") + 1, table)

    def test_validate_boolean_accepts_predicates(self, table):
        bitmap = validate_boolean(Col("age") > 0, table)
        assert bitmap.dtype == np.bool_

    def test_selectivity(self, table):
        assert selectivity(Col("age") > 36, table) == pytest.approx(0.4)

    def test_selectivity_empty_table(self, table):
        empty = table.head(0)
        assert selectivity(Col("age") > 0, empty) == 0.0

    def test_unknown_operators_rejected(self):
        from repro.relational.expressions import Arithmetic, BooleanOp, Comparison

        with pytest.raises(ExpressionError):
            Comparison("<>", Col("a"), Literal(1))
        with pytest.raises(ExpressionError):
            BooleanOp("xor", Col("a") > 1, Col("b") > 1)
        with pytest.raises(ExpressionError):
            Arithmetic("%", Col("a"), Literal(2))
