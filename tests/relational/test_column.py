"""Unit tests for typed columnar storage."""

from datetime import date, datetime

import numpy as np
import pytest

from repro.errors import SchemaError, TypeMismatchError
from repro.relational import Column, DataType, Field, date_to_days
from repro.relational.column import days_to_date


class TestDateConversion:
    def test_roundtrip(self):
        d = date(2023, 12, 2)
        assert days_to_date(date_to_days(d)) == d

    def test_epoch(self):
        assert date_to_days(date(1970, 1, 1)) == 0

    def test_from_string(self):
        assert date_to_days("2023-01-02") == date_to_days(date(2023, 1, 2))

    def test_from_datetime(self):
        assert date_to_days(datetime(2023, 1, 2, 15, 30)) == date_to_days(
            date(2023, 1, 2)
        )

    def test_from_int_passthrough(self):
        assert date_to_days(1234) == 1234

    def test_invalid_raises(self):
        with pytest.raises(TypeMismatchError):
            date_to_days(3.14)


class TestColumnConstruction:
    def test_int_column(self):
        col = Column(Field("x", DataType.INT64), [1, 2, 3])
        assert col.data.dtype == np.int64
        assert len(col) == 3

    def test_float_widening(self):
        col = Column(Field("x", DataType.FLOAT64), [1, 2, 3])
        assert col.data.dtype == np.float64

    def test_string_column_object_backed(self):
        col = Column(Field("s", DataType.STRING), ["a", "bb"])
        assert col.data.dtype == object
        assert col.data[1] == "bb"

    def test_date_column_from_dates(self):
        col = Column(Field("d", DataType.DATE), [date(2020, 1, 1), "2020-01-02"])
        assert col.data[1] - col.data[0] == 1

    def test_tensor_column_shape(self):
        data = np.zeros((5, 3), dtype=np.float32)
        col = Column(Field("v", DataType.TENSOR, dim=3), data)
        assert col.data.shape == (5, 3)

    def test_tensor_wrong_dim_rejected(self):
        with pytest.raises(TypeMismatchError, match="dim=3"):
            Column(Field("v", DataType.TENSOR, dim=3), np.zeros((5, 4)))

    def test_tensor_1d_rejected(self):
        with pytest.raises(TypeMismatchError, match="2-D"):
            Column(Field("v", DataType.TENSOR, dim=3), np.zeros(5))

    def test_scalar_2d_rejected(self):
        with pytest.raises(TypeMismatchError, match="1-D"):
            Column(Field("x", DataType.INT64), np.zeros((2, 2), dtype=np.int64))

    def test_from_values_helper(self):
        col = Column.from_values("v", DataType.TENSOR, np.ones((2, 2)), dim=2)
        assert col.name == "v"


class TestColumnOps:
    def make(self) -> Column:
        return Column(Field("x", DataType.INT64), [10, 20, 30, 40])

    def test_take(self):
        assert self.make().take(np.asarray([2, 0])).data.tolist() == [30, 10]

    def test_mask(self):
        col = self.make().mask(np.asarray([True, False, True, False]))
        assert col.data.tolist() == [10, 30]

    def test_mask_wrong_length(self):
        with pytest.raises(SchemaError, match="bitmap length"):
            self.make().mask(np.asarray([True]))

    def test_rename_preserves_data(self):
        col = self.make().rename("y")
        assert col.name == "y"
        assert col.data.tolist() == [10, 20, 30, 40]

    def test_concat(self):
        merged = self.make().concat(self.make())
        assert len(merged) == 8

    def test_concat_type_mismatch(self):
        other = Column(Field("x", DataType.FLOAT64), [1.0])
        with pytest.raises(TypeMismatchError):
            self.make().concat(other)

    def test_nbytes_numeric(self):
        assert self.make().nbytes() == 4 * 8

    def test_nbytes_strings_positive(self):
        col = Column(Field("s", DataType.STRING), ["abc", "de"])
        assert col.nbytes() > 0

    def test_to_pylist_dates_decoded(self):
        col = Column(Field("d", DataType.DATE), [date(2021, 5, 5)])
        assert col.to_pylist() == [date(2021, 5, 5)]

    def test_to_pylist_tensor_rows(self):
        col = Column(Field("v", DataType.TENSOR, dim=2), np.ones((2, 2)))
        out = col.to_pylist()
        assert len(out) == 2
        assert out[0].shape == (2,)
