"""Unit tests for data-parallel join execution: ``parallel-tensor`` is the
fp32 scan on an ``ExecutionEngine(n_threads)``, the parallel NLJ is
``prefetch_nlj(engine=)``."""

import pytest

from repro.core import (
    ThresholdCondition,
    TopKCondition,
    ejoin,
    prefetch_nlj,
    tensor_join,
)
from repro.engine import ExecutionEngine, partition_rows
from repro.errors import JoinError
from repro.vector import Kernel

THRESHOLD = ThresholdCondition(0.4)


class TestPartitionRows:
    def test_covers_range(self):
        parts = partition_rows(100, 7)
        assert parts[0][0] == 0
        assert parts[-1][1] == 100
        for (a, b), (c, _) in zip(parts, parts[1:]):
            assert b == c

    def test_no_empty_parts(self):
        parts = partition_rows(3, 10)
        assert len(parts) == 3
        assert all(hi > lo for lo, hi in parts)

    def test_single_part(self):
        assert partition_rows(5, 1) == [(0, 5)]

    def test_invalid_count(self):
        with pytest.raises(JoinError):
            partition_rows(10, 0)

    def test_balanced_sizes(self):
        parts = partition_rows(100, 3)
        sizes = [hi - lo for lo, hi in parts]
        assert max(sizes) - min(sizes) <= 1


class TestParallelJoin:
    @pytest.mark.parametrize("n_threads", [1, 2, 4])
    def test_tensor_matches_sequential(self, small_vectors, n_threads):
        left, right = small_vectors
        par = ejoin(left, right, THRESHOLD, strategy="parallel-tensor", n_threads=n_threads)
        seq = tensor_join(left, right, THRESHOLD)
        assert par.pairs() == seq.pairs()

    @pytest.mark.usefixtures("schedule_every_task")
    @pytest.mark.parametrize("n_threads", [1, 3])
    def test_nlj_matches_sequential(self, small_vectors, n_threads):
        left, right = small_vectors
        par = prefetch_nlj(
            left, right, THRESHOLD, engine=ExecutionEngine(n_threads=n_threads)
        )
        seq = prefetch_nlj(left, right, THRESHOLD)
        assert par.pairs() == seq.pairs()

    def test_topk_partition_safe(self, small_vectors):
        """Top-k is per left tuple, so left-partitioning preserves it."""
        left, right = small_vectors
        par = ejoin(left, right, TopKCondition(3), strategy="parallel-tensor", n_threads=4)
        seq = tensor_join(left, right, TopKCondition(3))
        assert par.pairs() == seq.pairs()

    def test_more_threads_than_rows(self, small_vectors):
        left, right = small_vectors
        par = ejoin(left[:2], right, THRESHOLD, strategy="parallel-tensor", n_threads=16)
        seq = tensor_join(left[:2], right, THRESHOLD)
        assert par.pairs() == seq.pairs()

    def test_stats_aggregated(self, small_vectors):
        left, right = small_vectors
        result = ejoin(left, right, THRESHOLD, strategy="parallel-tensor", n_threads=3)
        assert result.stats.similarity_evaluations == len(left) * len(right)
        assert result.stats.strategy == "parallel-tensor/3t"

    def test_unknown_strategy(self, small_vectors):
        left, right = small_vectors
        with pytest.raises(JoinError, match="unknown strategy"):
            ejoin(left, right, THRESHOLD, strategy="parallel-hash", n_threads=2)

    @pytest.mark.usefixtures("schedule_every_task")
    def test_scalar_kernel_supported(self, small_vectors):
        left, right = small_vectors
        par = prefetch_nlj(
            left[:5],
            right[:5],
            THRESHOLD,
            engine=ExecutionEngine(n_threads=2),
            kernel=Kernel.SCALAR,
        )
        seq = prefetch_nlj(left[:5], right[:5], THRESHOLD)
        assert par.pairs() == seq.pairs()

    def test_batching_forwarded(self, small_vectors):
        left, right = small_vectors
        par = ejoin(
            left, right, THRESHOLD, strategy="parallel-tensor", n_threads=2,
            batch_left=4, batch_right=6,
        )
        assert par.stats.peak_buffer_elements <= 24
        assert par.pairs() == tensor_join(left, right, THRESHOLD).pairs()
