"""Engine-executed operators: exactness, memory bounds, and plumbing."""

import numpy as np
import pytest

from repro.core import (
    ThresholdCondition,
    TopKCondition,
    ejoin,
    index_join,
    prefetch_nlj,
    resolve_batch_shape,
    tensor_join,
)
from repro.engine import ExecutionEngine, serial_engine
from repro.errors import BufferBudgetError, JoinError
from repro.index import FlatIndex
from repro.vector.select import TopKReducer
from repro.workloads import unit_vectors

THRESHOLD = ThresholdCondition(0.4)


def sorted_triples(result):
    ordered = result.sorted()
    return (
        ordered.left_ids.tolist(),
        ordered.right_ids.tolist(),
        ordered.scores.tolist(),
    )


class TestEngineExactness:
    @pytest.mark.parametrize("n_threads", [2, 4])
    def test_parallel_tensor_matches_single_thread_exactly(self, n_threads):
        left = unit_vectors(257, 16, seed=5)
        right = unit_vectors(301, 16, seed=6)
        single = ejoin(left, right, THRESHOLD, strategy="parallel-tensor", n_threads=1)
        multi = ejoin(left, right, THRESHOLD, strategy="parallel-tensor", n_threads=n_threads)
        assert sorted_triples(multi) == sorted_triples(single)

    def test_parallel_topk_matches_single_thread_exactly(self):
        left = unit_vectors(100, 8, seed=9)
        right = unit_vectors(120, 8, seed=10)
        single = ejoin(left, right, TopKCondition(5), strategy="parallel-tensor", n_threads=1)
        multi = ejoin(left, right, TopKCondition(5), strategy="parallel-tensor", n_threads=4)
        assert sorted_triples(multi) == sorted_triples(single)

    @pytest.mark.usefixtures("schedule_every_task")
    def test_tensor_join_with_parallel_engine(self, small_vectors):
        left, right = small_vectors
        engine = ExecutionEngine(n_threads=3)
        par = tensor_join(
            left, right, THRESHOLD, batch_left=7, engine=engine
        )
        seq = tensor_join(left, right, THRESHOLD, batch_left=7)
        assert sorted_triples(par) == sorted_triples(seq)
        assert engine.stats.morsels_dispatched > 0

    @pytest.mark.usefixtures("schedule_every_task")
    def test_nlj_with_parallel_engine(self, small_vectors):
        left, right = small_vectors
        engine = ExecutionEngine(n_threads=3, morsel_rows=4)
        par = prefetch_nlj(left, right, THRESHOLD, engine=engine)
        seq = prefetch_nlj(left, right, THRESHOLD)
        assert sorted_triples(par) == sorted_triples(seq)
        assert par.stats.extra["morsels"] == engine.stats.morsels_dispatched > 1

    def test_index_join_with_parallel_engine(self, small_vectors):
        left, right = small_vectors
        index = FlatIndex(right.shape[1])
        index.add(right)
        engine = ExecutionEngine(n_threads=3, morsel_rows=4)
        par = index_join(left, index, TopKCondition(3), engine=engine)
        seq = index_join(left, index, TopKCondition(3))
        assert par.pairs() == seq.pairs()
        # Probe counters are lock-protected, so the parallel run reports
        # exactly the sequential probe count (|left| * |right| for flat).
        assert (
            par.stats.similarity_evaluations
            == seq.stats.similarity_evaluations
            == len(left) * len(right)
        )

    @pytest.mark.usefixtures("schedule_every_task")
    def test_ejoin_forwards_engine(self, small_vectors):
        left, right = small_vectors
        engine = ExecutionEngine(n_threads=2, morsel_rows=8)
        result = ejoin(
            left, right, THRESHOLD, strategy="parallel-tensor", engine=engine
        )
        assert result.stats.strategy == "parallel-tensor/2t"
        assert engine.stats.runs > 0

    def test_parallel_join_reports_morsels(self, small_vectors):
        left, right = small_vectors
        result = ejoin(left, right, THRESHOLD, strategy="parallel-tensor", n_threads=2)
        assert result.stats.extra["morsels"] >= 1

    def test_conflicting_threads_and_engine_rejected(self, small_vectors):
        left, right = small_vectors
        with pytest.raises(JoinError, match="not both"):
            ejoin(
                left, right, THRESHOLD, strategy="parallel-tensor",
                n_threads=2, engine=ExecutionEngine(n_threads=4),
            )

    def test_ejoin_rejects_conflict_regardless_of_size(self, small_vectors):
        """The conflict fires up front, not only when auto picks the
        parallel strategy for large inputs."""
        left, right = small_vectors
        with pytest.raises(JoinError, match="not both"):
            ejoin(
                left, right, THRESHOLD,
                n_threads=2, engine=ExecutionEngine(n_threads=4),
            )


class TestTopKMemoryBudget:
    """Acceptance: top-k tensor joins hold peak intermediate memory within
    the configured Figure 7 buffer budget, end to end."""

    def test_peak_intermediate_within_budget(self):
        left = unit_vectors(400, 32, seed=21)
        right = unit_vectors(900, 32, seed=22)
        k = 8
        budget = 64 * 1024  # far smaller than 400*900*4 = 1.44 MB dense
        result = tensor_join(
            left,
            right,
            TopKCondition(k),
            buffer_budget_bytes=budget,
        )
        peak = result.stats.extra["peak_intermediate_bytes"]
        assert peak > 0
        assert peak <= budget
        # The dense GEMM buffer alone also respects the budget.
        assert result.stats.peak_buffer_elements * 4 <= budget
        # And the result is still exact.
        exact = tensor_join(left, right, TopKCondition(k))
        assert result.pairs() == exact.pairs()

    def test_threshold_peak_tracked(self, small_vectors):
        left, right = small_vectors
        result = tensor_join(
            left, right, THRESHOLD, buffer_budget_bytes=1024
        )
        assert result.stats.extra["peak_intermediate_bytes"] <= 1024

    def test_budget_reserves_merge_state(self):
        """The resolved dense block shrinks to leave room for merge state."""
        left = unit_vectors(64, 8, seed=31)
        right = unit_vectors(512, 8, seed=32)
        budget = 16 * 1024
        topk = tensor_join(
            left, right, TopKCondition(16), buffer_budget_bytes=budget
        )
        thresh = tensor_join(
            left, right, THRESHOLD, buffer_budget_bytes=budget
        )
        assert (
            topk.stats.peak_buffer_elements
            < thresh.stats.peak_buffer_elements
        )

    @staticmethod
    def _concurrent_bytes(result, engine):
        """Worst-case resident bytes: concurrently-held blocks x per-block
        peak (the per-block peak already includes top-k merge state)."""
        bl, _ = result.stats.extra["batch_shape"]
        blocks = -(-result.stats.n_left // bl)
        holders = min(engine.n_threads, blocks)
        return holders * result.stats.extra["peak_intermediate_bytes"]

    def test_budget_split_across_engine_workers(self):
        """Concurrent workers each hold a block; their sum stays bounded."""
        left = unit_vectors(400, 16, seed=51)
        right = unit_vectors(400, 16, seed=52)
        budget = 64 * 1024
        engine = ExecutionEngine(n_threads=4)
        result = tensor_join(
            left, right, THRESHOLD, buffer_budget_bytes=budget, engine=engine
        )
        assert self._concurrent_bytes(result, engine) <= budget
        assert result.pairs() == tensor_join(left, right, THRESHOLD).pairs()

    @pytest.mark.parametrize("condition", [THRESHOLD, TopKCondition(8)])
    def test_budget_holds_when_split_creates_more_blocks(self, condition):
        """Shrinking the per-worker budget raises the block count; the
        share iteration must converge so holders x per-block <= budget
        (regression: a one-shot split gave 3 blocks x half-budget)."""
        left = unit_vectors(4000, 8, seed=57)
        right = unit_vectors(4000, 8, seed=58)
        budget = 16 * 1024 * 1024
        engine = ExecutionEngine(n_threads=8)
        result = tensor_join(
            left, right, condition, buffer_budget_bytes=budget, engine=engine
        )
        assert self._concurrent_bytes(result, engine) <= budget

    @pytest.mark.parametrize("budget", [None, 1 << 30])
    @pytest.mark.usefixtures("schedule_every_task")
    def test_parallel_engine_tensor_join_actually_parallelizes(self, budget):
        """An engine-parallel tensor join must split into blocks rather
        than one serial full block — with no budget AND with a budget so
        generous it would never force a split on its own."""
        left = unit_vectors(3000, 8, seed=59)
        right = unit_vectors(500, 8, seed=60)
        engine = ExecutionEngine(n_threads=4)
        result = tensor_join(
            left, right, THRESHOLD, engine=engine, buffer_budget_bytes=budget
        )
        bl, _ = result.stats.extra["batch_shape"]
        assert bl < 3000
        assert engine.stats.morsels_dispatched > 1
        assert result.pairs() == tensor_join(left, right, THRESHOLD).pairs()

    def test_join_splits_for_parallelism_within_budget(self, request):
        """A join whose tasks are worth scheduling is morselized for
        concurrency, and the budget bounds the concurrently-resident
        blocks; an engine-less join of the same size keeps the full budget
        for its single block."""
        left = unit_vectors(100, 16, seed=55)
        right = unit_vectors(100, 16, seed=56)
        budget = 64 * 1024
        serial = tensor_join(
            left, right, THRESHOLD, buffer_budget_bytes=budget
        )
        assert serial.stats.extra["batch_shape"] == (100, 100)
        # With the task floors lifted one worker would cut its left side
        # too; the engine-less shape above is the one under the real floors.
        request.getfixturevalue("schedule_every_task")
        engine = ExecutionEngine(n_threads=8)
        par = tensor_join(
            left, right, THRESHOLD, buffer_budget_bytes=budget, engine=engine
        )
        assert self._concurrent_bytes(par, engine) <= budget
        assert par.stats.extra["batch_shape"][0] < 100  # actually split
        assert par.pairs() == serial.pairs()

    def test_join_under_the_task_floor_is_not_split(self):
        """100 x 100 x 16 multiply-adds are not worth a scheduler run: the
        engine join is the serial join — one block, the whole budget, no
        morsel dispatched."""
        left = unit_vectors(100, 16, seed=55)
        right = unit_vectors(100, 16, seed=56)
        engine = ExecutionEngine(n_threads=8)
        par = tensor_join(
            left, right, THRESHOLD, buffer_budget_bytes=64 * 1024, engine=engine
        )
        assert par.stats.extra["batch_shape"] == (100, 100)
        assert engine.stats.morsels_dispatched == 0
        assert par.pairs() == tensor_join(left, right, THRESHOLD).pairs()

    def test_blocks_under_the_task_floor_run_inline(self):
        """3,000 x 500 x 8 is three MAX_BLOCK_ROWS left blocks of 4 M
        multiply-adds: 12 M in all, not worth one scheduler run."""
        from repro.vector.select import MIN_TASK_WORK

        left = unit_vectors(3000, 8, seed=59)
        right = unit_vectors(500, 8, seed=60)
        assert 3000 * 500 * 8 < MIN_TASK_WORK
        engine = ExecutionEngine(n_threads=2)
        result = tensor_join(left, right, THRESHOLD, engine=engine)
        bl, _ = result.stats.extra["batch_shape"]
        assert -(-3000 // bl) == 3  # still three blocks
        assert engine.stats.morsels_dispatched == 0 and engine.stats.runs == 0
        assert result.pairs() == tensor_join(left, right, THRESHOLD).pairs()

    def test_nlj_under_the_task_floor_runs_inline(self):
        """The NLJ prices a left row like the scan joins do (right rows x
        dim), so a toy join costs no scheduler run — and
        it reports the one morsel that call cut."""
        left = unit_vectors(100, 16, seed=55)
        right = unit_vectors(100, 16, seed=56)
        engine = ExecutionEngine(n_threads=8)
        par = prefetch_nlj(left, right, THRESHOLD, engine=engine)
        assert par.stats.extra["morsels"] == 1
        assert engine.stats.runs == 0 and engine.stats.morsels_dispatched == 0
        assert par.pairs() == prefetch_nlj(left, right, THRESHOLD).pairs()

    def test_blocks_over_the_task_floor_are_dispatched(self):
        left = unit_vectors(1000, 128, seed=61)
        right = unit_vectors(40_000, 128, seed=62)
        engine = ExecutionEngine(n_threads=2)
        result = tensor_join(left, right, TopKCondition(8), engine=engine)
        # A 500-row task a worker, not four of 125: the sweep reads this
        # join's GEMM at 124 GFLOP/s in 500-row blocks, 96 in 125-row ones
        # (tools/sweep_blocks.py: 134.2 -> 108.9 ms on one thread).
        assert result.stats.extra["batch_shape"] == (500, 4192)
        assert engine.stats.morsels_dispatched == 2
        par = ejoin(left, right, TopKCondition(8), strategy="parallel-tensor", engine=engine)
        assert par.stats.extra["morsels"] == 2
        assert engine.stats.morsels_dispatched == 4
        assert np.array_equal(par.right_ids, result.right_ids)

    def test_parallel_join_budget_split(self):
        left = unit_vectors(300, 16, seed=53)
        right = unit_vectors(300, 16, seed=54)
        budget = 64 * 1024
        result = ejoin(
            left, right, THRESHOLD, strategy="parallel-tensor", n_threads=4,
            buffer_budget_bytes=budget,
        )
        resident = min(4, result.stats.extra["morsels"])
        assert result.stats.peak_buffer_elements * 4 * resident <= budget

    def test_budget_too_small_for_merge_state(self):
        left = unit_vectors(16, 8, seed=41)
        right = unit_vectors(16, 8, seed=42)
        tiny = TopKReducer.state_bytes_per_row(64) // 2
        with pytest.raises(BufferBudgetError):
            tensor_join(
                left, right, TopKCondition(64), buffer_budget_bytes=tiny
            )


class TestResolveBatchShapeEdges:
    def test_empty_left_relation(self):
        assert resolve_batch_shape(0, 5) == (1, 5)

    def test_empty_right_relation(self):
        assert resolve_batch_shape(5, 0) == (5, 1)

    def test_both_empty(self):
        assert resolve_batch_shape(0, 0) == (1, 1)

    def test_budget_smaller_than_one_cell(self):
        with pytest.raises(BufferBudgetError, match="FP32 cell"):
            resolve_batch_shape(10, 10, buffer_budget_bytes=3)

    def test_budget_of_exactly_one_cell(self):
        assert resolve_batch_shape(10, 10, buffer_budget_bytes=4) == (1, 1)

    def test_batches_exceeding_inputs_are_clamped(self):
        assert resolve_batch_shape(
            10, 10, batch_left=50, batch_right=30
        ) == (10, 10)

    def test_zero_batch_rejected(self):
        with pytest.raises(BufferBudgetError):
            resolve_batch_shape(10, 10, batch_left=0, batch_right=0)


class TestSerialEngineDefault:
    def test_serial_engine_inline(self, small_vectors):
        left, right = small_vectors
        result = tensor_join(
            left, right, THRESHOLD, engine=serial_engine()
        )
        assert result.pairs() == tensor_join(left, right, THRESHOLD).pairs()
