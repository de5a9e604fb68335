"""ShardMap partitioning."""

from __future__ import annotations

import pytest

from repro.errors import SchemaError
from repro.relational.catalog import ShardMap

pytestmark = pytest.mark.shard


class TestShardMapBuild:
    def test_ranges_cover_rows_exactly_once_in_order(self):
        for n_rows, n_shards in ((0, 1), (1, 1), (7, 3), (100, 8), (8, 16)):
            shard_map = ShardMap.build("t", 1, n_rows, n_shards)
            assert shard_map.n_shards == n_shards
            cursor = 0
            for start, stop in shard_map.ranges:
                assert start == cursor
                assert stop >= start
                cursor = stop
            assert cursor == n_rows

    def test_ranges_balanced_to_within_one_row(self):
        shard_map = ShardMap.build("t", 1, 1001, 4)
        sizes = [stop - start for start, stop in shard_map.ranges]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 1001

    def test_bad_arguments_raise(self):
        with pytest.raises(SchemaError):
            ShardMap.build("t", 1, 10, 0)
        with pytest.raises(SchemaError):
            ShardMap.build("t", 1, -1, 2)

