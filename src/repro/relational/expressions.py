"""Expression trees evaluated over columnar tables.

Expressions are the glue between declarative predicates (``taken > DATE``,
``price * qty``) and vectorized NumPy evaluation.  Every node evaluates to a
NumPy array aligned with the input table's rows; comparison and boolean
nodes produce boolean bitmaps consumed by the filter operator and by the
pre-filtering stage of the index join (Section IV-B of the paper).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from datetime import date, datetime

import numpy as np

from ..errors import ExpressionError
from .column import date_to_days
from .table import Table


class Expression:
    """Base class for all expression nodes."""

    def evaluate(self, table: Table) -> np.ndarray:
        raise NotImplementedError

    def columns(self) -> set[str]:
        """Names of the columns this expression reads."""
        raise NotImplementedError

    # -- operator sugar -------------------------------------------------
    def __eq__(self, other):  # type: ignore[override]
        return Comparison("==", self, lift(other))

    def __ne__(self, other):  # type: ignore[override]
        return Comparison("!=", self, lift(other))

    def __lt__(self, other):
        return Comparison("<", self, lift(other))

    def __le__(self, other):
        return Comparison("<=", self, lift(other))

    def __gt__(self, other):
        return Comparison(">", self, lift(other))

    def __ge__(self, other):
        return Comparison(">=", self, lift(other))

    def __and__(self, other):
        return BooleanOp("and", self, lift(other))

    def __or__(self, other):
        return BooleanOp("or", self, lift(other))

    def __invert__(self):
        return Not(self)

    def __add__(self, other):
        return Arithmetic("+", self, lift(other))

    def __sub__(self, other):
        return Arithmetic("-", self, lift(other))

    def __mul__(self, other):
        return Arithmetic("*", self, lift(other))

    def __truediv__(self, other):
        return Arithmetic("/", self, lift(other))

    def __hash__(self):
        return id(self)

    def is_in(self, values) -> "InList":
        return InList(self, list(values))

    def between(self, lo, hi) -> "BooleanOp":
        return BooleanOp("and", self >= lo, self <= hi)


def lift(value) -> Expression:
    """Wrap a plain Python value into a :class:`Literal` if needed."""
    if isinstance(value, Expression):
        return value
    return Literal(value)


@dataclass(eq=False)
class Col(Expression):
    """Reference to a named column."""

    name: str

    def evaluate(self, table: Table) -> np.ndarray:
        return table.array(self.name)

    def columns(self) -> set[str]:
        return {self.name}

    def __repr__(self) -> str:
        return f"Col({self.name})"


@dataclass(eq=False)
class Literal(Expression):
    """A constant value broadcast over all rows."""

    value: object

    def evaluate(self, table: Table) -> np.ndarray:
        v = self.value
        if isinstance(v, (date, datetime)):
            v = date_to_days(v)
        return np.full(table.num_rows, v)

    def scalar(self):
        v = self.value
        if isinstance(v, (date, datetime)):
            return date_to_days(v)
        return v

    def columns(self) -> set[str]:
        return set()

    def __repr__(self) -> str:
        return f"Lit({self.value!r})"


_COMPARATORS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_ARITH = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


def _operand(expr: Expression, table: Table) -> np.ndarray:
    """Evaluate an operand, keeping literals as scalars for broadcasting."""
    if isinstance(expr, Literal):
        return expr.scalar()
    return expr.evaluate(table)


@dataclass(eq=False)
class Comparison(Expression):
    """Binary comparison producing a boolean bitmap."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise ExpressionError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, table: Table) -> np.ndarray:
        lhs = _operand(self.left, table)
        rhs = _operand(self.right, table)
        # String columns are object arrays; elementwise comparison works but
        # NumPy needs help when both sides are object arrays of differing len.
        result = _COMPARATORS[self.op](lhs, rhs)
        return np.asarray(result, dtype=bool)

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(eq=False)
class BooleanOp(Expression):
    """Logical conjunction/disjunction of two boolean expressions."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in ("and", "or"):
            raise ExpressionError(f"unknown boolean operator {self.op!r}")

    def evaluate(self, table: Table) -> np.ndarray:
        lhs = np.asarray(self.left.evaluate(table), dtype=bool)
        rhs = np.asarray(self.right.evaluate(table), dtype=bool)
        return lhs & rhs if self.op == "and" else lhs | rhs

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(eq=False)
class Not(Expression):
    """Logical negation."""

    child: Expression

    def evaluate(self, table: Table) -> np.ndarray:
        return ~np.asarray(self.child.evaluate(table), dtype=bool)

    def columns(self) -> set[str]:
        return self.child.columns()

    def __repr__(self) -> str:
        return f"(not {self.child!r})"


@dataclass(eq=False)
class Arithmetic(Expression):
    """Binary arithmetic over numeric columns."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _ARITH:
            raise ExpressionError(f"unknown arithmetic operator {self.op!r}")

    def evaluate(self, table: Table) -> np.ndarray:
        lhs = _operand(self.left, table)
        rhs = _operand(self.right, table)
        return _ARITH[self.op](lhs, rhs)

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(eq=False)
class InList(Expression):
    """Membership test against a fixed list of values."""

    child: Expression
    values: list

    def evaluate(self, table: Table) -> np.ndarray:
        data = self.child.evaluate(table)
        values = [
            date_to_days(v) if isinstance(v, (date, datetime)) else v
            for v in self.values
        ]
        if data.dtype == object:
            allowed = set(values)
            return np.asarray([v in allowed for v in data], dtype=bool)
        return np.isin(data, np.asarray(values))

    def columns(self) -> set[str]:
        return self.child.columns()

    def __repr__(self) -> str:
        return f"({self.child!r} in {self.values!r})"


def validate_boolean(expr: Expression, table: Table) -> np.ndarray:
    """Evaluate ``expr`` and insist the result is a boolean bitmap."""
    result = expr.evaluate(table)
    if result.dtype != np.bool_:
        raise ExpressionError(
            f"predicate {expr!r} evaluated to {result.dtype}, expected bool"
        )
    if result.shape != (table.num_rows,):
        raise ExpressionError(
            f"predicate {expr!r} produced shape {result.shape}, expected "
            f"({table.num_rows},)"
        )
    return result


def selectivity(expr: Expression, table: Table) -> float:
    """Fraction of rows satisfying ``expr`` (0.0 for empty tables)."""
    if table.num_rows == 0:
        return 0.0
    return float(validate_boolean(expr, table).mean())
