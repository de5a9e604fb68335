"""Unit tests for morsel generation and row partitioning."""

import pytest

from repro.engine import partition_rows
from repro.engine.morsel import Morsel, make_morsels
from repro.errors import JoinError


class TestPartitionRowsEdges:
    def test_empty_relation(self):
        assert partition_rows(0, 4) == []

    def test_negative_rows(self):
        assert partition_rows(-3, 2) == []

    def test_more_parts_than_rows(self):
        parts = partition_rows(3, 100)
        assert parts == [(0, 1), (1, 2), (2, 3)]

    def test_single_row(self):
        assert partition_rows(1, 8) == [(0, 1)]

    def test_invalid_part_count(self):
        with pytest.raises(JoinError, match="n_parts"):
            partition_rows(10, 0)
        with pytest.raises(JoinError, match="n_parts"):
            partition_rows(10, -1)

    @pytest.mark.parametrize("n,n_parts", [(7, 3), (100, 7), (10, 10), (11, 4)])
    def test_off_by_one_boundaries(self, n, n_parts):
        """Parts tile [0, n) exactly: contiguous, disjoint, full coverage."""
        parts = partition_rows(n, n_parts)
        assert parts[0][0] == 0
        assert parts[-1][1] == n
        for (_, hi), (lo, _) in zip(parts, parts[1:]):
            assert hi == lo
        assert sum(hi - lo for lo, hi in parts) == n
        sizes = [hi - lo for lo, hi in parts]
        assert max(sizes) - min(sizes) <= 1


class TestMakeMorsels:
    def test_exact_division(self):
        morsels = make_morsels(100, 25)
        assert [(m.start, m.stop) for m in morsels] == [
            (0, 25), (25, 50), (50, 75), (75, 100)
        ]
        assert [m.seq for m in morsels] == [0, 1, 2, 3]

    def test_remainder_spread(self):
        morsels = make_morsels(10, 4)
        assert sum(len(m) for m in morsels) == 10
        assert all(len(m) <= 4 for m in morsels)

    def test_empty(self):
        assert make_morsels(0, 16) == []

    def test_invalid_morsel_rows(self):
        with pytest.raises(JoinError, match="morsel_rows"):
            make_morsels(10, 0)

    def test_morsel_len(self):
        assert len(Morsel(0, 3, 9)) == 6
