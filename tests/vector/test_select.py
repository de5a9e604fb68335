"""The batch-major select against a naive oracle: a full stable sort by
``(score desc, id asc)`` for top-k, a full-width compare for thresholds."""

import numpy as np
import pytest

from repro.core import resolve_batch_shape
from repro.engine import ExecutionEngine
from repro.errors import BufferBudgetError, DimensionalityError
from repro.vector.select import (
    BLOCK_BYTES,
    CHUNK,
    MAX_BLOCK_ROWS,
    MIN_STRIDE,
    TRIPLE_BYTES,
    TopKReducer,
    maxima_bytes,
    scan_shape,
    select_above,
)


def oracle_topk(scores: np.ndarray, k: int):
    """Per row: ids and scores of the k best by (score desc, id asc)."""
    order = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    return order, np.take_along_axis(scores, order, axis=1)


def oracle_above(scores: np.ndarray, floor) -> set[tuple[int, int]]:
    floor = np.asarray(floor, dtype=scores.dtype)
    rows, cols = np.nonzero(scores >= (floor[:, None] if floor.ndim else floor))
    return set(zip(rows.tolist(), cols.tolist()))


def reduce_blocks(scores: np.ndarray, k: int, width: int):
    """Stream ``scores`` through a reducer in right blocks of ``width``."""
    reducer = TopKReducer(scores.shape[0], k)
    for r0 in range(0, scores.shape[1], width):
        reducer.push(scores[:, r0 : r0 + width], r0)
    return reducer.finalize()


def assert_matches_oracle(scores: np.ndarray, k: int, width: int) -> None:
    rows, ids, picked = reduce_blocks(scores, k, width)
    want_ids, want_scores = oracle_topk(scores, k)
    kk = want_ids.shape[1]
    assert rows.tolist() == np.repeat(np.arange(len(scores)), kk).tolist()
    np.testing.assert_array_equal(ids.reshape(len(scores), kk), want_ids)
    np.testing.assert_array_equal(picked.reshape(len(scores), kk), want_scores)


CHUNKED = MIN_STRIDE * CHUNK  # narrowest block that takes the chunked path
WIDE = CHUNKED + 5  # chunked path with a tail not divisible by CHUNK


class TestSelectAbove:
    @pytest.mark.parametrize("width", [1, CHUNK, CHUNKED - 1, CHUNKED, WIDE, 3 * WIDE])
    def test_scalar_floor_matches_full_compare(self, width):
        scores = np.random.default_rng(width).random((7, width)).astype(np.float32)
        rows, cols, picked = select_above(scores, 0.8)
        assert set(zip(rows.tolist(), cols.tolist())) == oracle_above(scores, 0.8)
        np.testing.assert_array_equal(picked, scores[rows, cols])

    def test_per_row_floors(self):
        scores = np.random.default_rng(1).random((9, WIDE)).astype(np.float32)
        floors = np.linspace(0.5, 0.99, 9).astype(np.float32)
        rows, cols, _ = select_above(scores, floors)
        assert set(zip(rows.tolist(), cols.tolist())) == oracle_above(scores, floors)

    def test_floor_equal_to_attained_score_is_kept(self):
        scores = np.random.default_rng(2).random((4, WIDE)).astype(np.float32)
        floor = float(scores[2, 100])
        rows, cols, _ = select_above(scores, floor)
        assert (2, 100) in set(zip(rows.tolist(), cols.tolist()))
        assert set(zip(rows.tolist(), cols.tolist())) == oracle_above(scores, floor)

    def test_transposed_view_needs_no_copy(self):
        scores = np.random.default_rng(3).random((WIDE, 6)).astype(np.float32)
        rows, cols, picked = select_above(scores.T, 0.9)
        assert set(zip(rows.tolist(), cols.tolist())) == oracle_above(
            np.ascontiguousarray(scores.T), 0.9
        )
        np.testing.assert_array_equal(picked, scores.T[rows, cols])

    def test_k_raises_floor_but_keeps_the_top_k(self):
        scores = np.random.default_rng(4).random((5, WIDE)).astype(np.float32)
        rows, cols, _ = select_above(scores, -np.inf, k=3)
        assert len(rows) < scores.size  # it did gate
        found = set(zip(rows.tolist(), cols.tolist()))
        want_ids, _ = oracle_topk(scores, 3)
        for row, ids in enumerate(want_ids):
            assert {(row, int(i)) for i in ids} <= found

    def test_nothing_qualifies(self):
        rows, cols, picked = select_above(np.zeros((3, WIDE), np.float32), 1.0)
        assert len(rows) == len(cols) == len(picked) == 0

    def test_empty_block(self):
        rows, _, _ = select_above(np.empty((0, WIDE), np.float32), 0.0)
        assert len(rows) == 0

    def test_rejects_non_2d(self):
        with pytest.raises(DimensionalityError):
            select_above(np.zeros(4, np.float32), 0.0)


class TestTopKReducer:
    @pytest.mark.parametrize("width", [1, 7, CHUNK, CHUNKED, WIDE, 10_000])
    def test_random_scores_any_block_width(self, width):
        scores = np.random.default_rng(5).random((11, 3 * WIDE)).astype(np.float32)
        assert_matches_oracle(scores, 5, width)

    @pytest.mark.parametrize("k", [1, 4, 3 * WIDE, 3 * WIDE + 10])
    def test_k_from_one_to_beyond_the_width(self, k):
        scores = np.random.default_rng(6).random((3, 3 * WIDE)).astype(np.float32)
        assert_matches_oracle(scores, k, WIDE)

    def test_single_row(self):
        scores = np.random.default_rng(7).random((1, 3 * WIDE)).astype(np.float32)
        assert_matches_oracle(scores, 4, WIDE)

    @pytest.mark.parametrize("width", [5, CHUNKED, WIDE, 10_000])
    def test_all_equal_scores_keep_smallest_ids(self, width):
        scores = np.full((3, 3 * CHUNKED), 0.5, dtype=np.float32)
        _, ids, _ = reduce_blocks(scores, 4, width)
        assert ids.reshape(3, 4).tolist() == [[0, 1, 2, 3]] * 3

    def test_ties_straddling_chunk_and_block_boundaries(self):
        """Equal best scores sit in different strided chunks, on both sides
        of a right-block boundary and in the first and second block; the
        smallest ids must win whatever the block width."""
        n_cols = 2 * CHUNKED
        scores = np.zeros((2, n_cols), dtype=np.float32)
        # In a CHUNKED-wide block column j is in strided chunk
        # j % MIN_STRIDE: columns 0 and 1 are in different chunks, 0 and
        # MIN_STRIDE in the same one.
        tied = [0, 1, MIN_STRIDE, CHUNKED - 1, CHUNKED, CHUNKED + 1, n_cols - 1]
        scores[:, tied] = 1.0
        for width in (CHUNKED, CHUNKED + 1, n_cols, 2 * CHUNK, 1):
            _, ids, picked = reduce_blocks(scores, 5, width)
            assert ids.reshape(2, 5).tolist() == [tied[:5]] * 2, width
            assert picked.tolist() == [1.0] * 10

    def test_floor_tracks_kth_best(self):
        scores = np.random.default_rng(9).random((6, 3 * WIDE)).astype(np.float32)
        reducer = TopKReducer(6, 3)
        assert np.isneginf(reducer.floor).all()
        reducer.push(scores, 0)
        _, want = oracle_topk(scores, 3)
        np.testing.assert_array_equal(reducer.floor, want[:, -1])

    def test_merge_order_does_not_matter(self):
        rng = np.random.default_rng(10)
        rows = np.repeat(np.arange(5), 40)
        ids = np.tile(np.arange(40), 5)
        scores = rng.integers(0, 6, size=200).astype(np.float32)  # many ties
        results = []
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(200)
            reducer = TopKReducer(5, 7)
            for part in np.array_split(perm, 4):
                reducer.merge(rows[part], ids[part], scores[part])
            results.append(tuple(a.tolist() for a in reducer.finalize()))
        assert results[0] == results[1] == results[2]

    def test_pool_stays_bounded(self):
        rng = np.random.default_rng(11)
        reducer = TopKReducer(4, 3)
        for r0 in range(0, 50 * WIDE, WIDE):
            reducer.push(rng.random((4, WIDE)).astype(np.float32), r0)
        # Far below what holding every streamed cell as a triple would take.
        assert reducer.peak_bytes < (50 * 4 * WIDE * TRIPLE_BYTES) // 10
        rows, _, _ = reducer.finalize()
        assert len(rows) == 4 * 3

    def test_empty_finalize(self):
        rows, ids, picked = TopKReducer(5, 2).finalize()
        assert len(rows) == len(ids) == len(picked) == 0

    def test_invalid_arguments(self):
        with pytest.raises(DimensionalityError, match="k must be"):
            TopKReducer(3, 0)
        with pytest.raises(DimensionalityError, match="n_rows"):
            TopKReducer(-1, 2)
        with pytest.raises(DimensionalityError, match="rows"):
            TopKReducer(3, 2).push(np.ones((2, 4), dtype=np.float32))

    def test_accounting_grows_with_k_and_tracks_pushes(self):
        assert TopKReducer.state_bytes_per_row(1) > 0
        assert TopKReducer.state_bytes_per_row(32) > TopKReducer.state_bytes_per_row(4)
        reducer = TopKReducer(4, 3)
        reducer.push(np.random.default_rng(12).random((4, WIDE)).astype(np.float32))
        assert reducer.peak_bytes >= maxima_bytes(4, WIDE) > 0


def block_shape(rows, width, *, fixed_rows=False, fixed_width=False):
    """Step 4 of the rule alone: one worker, bounds ``rows x width``."""
    return scan_shape(
        rows, width, workers=1,
        batch_left=rows if fixed_rows else None,
        batch_right=width if fixed_width else None,
    )


class TestBlockShape:
    def test_derived_block_fits_the_target(self):
        rows, width = block_shape(125, 40_000)
        assert rows == 125
        assert width % CHUNK == 0
        assert rows * width * 4 <= BLOCK_BYTES < rows * (width + CHUNK) * 4

    def test_small_inputs_untouched(self):
        assert block_shape(30, 40) == (30, 40)

    def test_a_strip_within_the_bound_stays_whole(self):
        """209 x 8,000 fp32 scores are 6.7 MB: one block, not three narrow
        ones; 125 x 40,000 (20 MB) is cut exactly as before."""
        from repro.vector.select import STRIP_BYTES

        assert 209 * 8_000 * 4 <= STRIP_BYTES < 125 * 40_000 * 4
        assert block_shape(209, 8_000) == (209, 8_000)
        assert block_shape(125, 40_000) == (125, 8_384)
        assert block_shape(418, 8_000) == (418, 2_496)  # 13 MB: cut

    def test_pinned_edges_are_honoured(self):
        assert block_shape(5000, 7, fixed_rows=True, fixed_width=True) == (5000, 7)
        assert block_shape(125, 40_000, fixed_width=True) == (125, 40_000)
        rows, width = block_shape(50_000, 40_000, fixed_rows=True)
        assert rows == 50_000 and width == CHUNKED

    def test_derived_left_edge_is_capped(self):
        rows, width = block_shape(1_000_000, 40_000)
        assert rows <= MAX_BLOCK_ROWS
        assert width == BLOCK_BYTES // (4 * MAX_BLOCK_ROWS)


TWO_THREADS = dict(n_threads=2)
ONE_THREAD_125 = dict(n_threads=1, morsel_rows=125)
ONE_THREAD = dict(n_threads=1)


def _join_shape(n_left, n_right, dim, k, engine, **edges):
    """The rule as ``scan_join`` asks it for an engine's join."""
    engine = ExecutionEngine(**engine)
    return scan_shape(
        n_left, n_right,
        **{"buffer_budget_bytes": engine.buffer_budget_bytes, **edges},
        reserve_bytes_per_row=TopKReducer.state_bytes_per_row(k) if k else 0,
        workers=engine.n_threads, morsel_rows=engine.morsel_rows,
        row_work=n_right * dim,
    )


class TestShapeTable:
    """The one shape table: literal ``(batch_left, batch_right)`` of
    ``resolve_block_shape`` at d0f3588 (PR 18), which the rule replaced.
    The ``ONE_THREAD`` rows (an engine-less join is one worker with the
    default 1,024-row morsels) are the rows that changed on purpose: an
    uncut left side is now cut for one worker like for many, so its strip
    is no longer cut to the narrowest width the select can chunk."""

    @pytest.mark.parametrize(
        "case, engine, expected",
        [
            # (n_left, n_right, dim, k), engine, shape — unchanged rows
            ((1000, 40_000, 128, 10), TWO_THREADS, (125, 8384)),
            ((1000, 40_000, 128, 10), ONE_THREAD_125, (125, 8384)),
            ((1000, 40_000, 128, None), TWO_THREADS, (125, 8384)),
            ((1000, 40_000, 128, None), ONE_THREAD_125, (125, 8384)),
            ((835, 8000, 64, 1), TWO_THREADS, (209, 8000)),
            ((835, 8000, 64, 1), ONE_THREAD_125, (120, 8000)),
            ((209, 8000, 64, 1), TWO_THREADS, (209, 8000)),
            ((209, 8000, 64, 1), ONE_THREAD_125, (105, 8000)),
            ((1, 150_000, 128, 10), TWO_THREADS, (1, 150_000)),
            ((1, 150_000, 128, 10), ONE_THREAD_125, (1, 150_000)),
            ((157, 2311, 24, 5), TWO_THREADS, (157, 2311)),
            ((157, 2311, 24, 5), ONE_THREAD_125, (79, 2311)),
            ((3000, 500, 8, 3), TWO_THREADS, (1000, 500)),
            ((3000, 500, 8, 3), ONE_THREAD_125, (125, 500)),
            ((5000, 5000, 100, None), TWO_THREADS, (625, 1664)),
            ((5000, 5000, 100, None), ONE_THREAD_125, (125, 5000)),
            ((209, 8000, 64, 1), ONE_THREAD, (209, 8000)),
            ((157, 2311, 24, 5), ONE_THREAD, (157, 2311)),
            ((125, 40_000, 128, 10), ONE_THREAD, (125, 8384)),
            ((5000, 5000, 100, None), ONE_THREAD, (1000, 1024)),
            # changed on purpose: one worker, uncut left side, strip over
            # STRIP_BYTES — was (1000, 1024), (1000, 1024), (835, 1248)
            ((1000, 40_000, 128, 10), ONE_THREAD, (250, 4192)),
            ((1000, 40_000, 128, None), ONE_THREAD, (250, 4192)),
            ((835, 8000, 64, 1), ONE_THREAD, (209, 8000)),
            # changed on purpose: tasks under MIN_TASK_ROWS rows are not
            # cut — was (21, 40000) on two workers
            ((125, 40_000, 128, 10), TWO_THREADS, (125, 8384)),
        ],
    )
    def test_derived_shapes(self, case, engine, expected):
        assert _join_shape(*case, engine) == expected

    @pytest.mark.parametrize(
        "engine, edges, expected",
        [
            (TWO_THREADS, dict(buffer_budget_bytes=1 << 20), (356, 207)),
            (ONE_THREAD, dict(buffer_budget_bytes=1 << 20), (504, 354)),
            (TWO_THREADS, dict(batch_left=125), (125, 8384)),
            (ONE_THREAD, dict(batch_left=125), (125, 8384)),
            (TWO_THREADS, dict(batch_right=1100), (125, 1100)),
            (TWO_THREADS, dict(batch_left=3, batch_right=7), (3, 7)),
            # changed on purpose (one worker, uncut left): was (1000, 1100)
            (ONE_THREAD, dict(batch_right=1100), (250, 1100)),
        ],
    )
    def test_edges_and_budgets(self, engine, edges, expected):
        assert _join_shape(1000, 40_000, 128, 10, engine, **edges) == expected

    def test_the_engine_less_name_stops_after_the_budget(self):
        assert resolve_batch_shape(1000, 40_000) == (1000, 40_000)
        assert resolve_batch_shape(
            1000, 40_000, buffer_budget_bytes=1 << 20
        ) == (512, 512)

    def test_a_served_scan_is_the_rule_with_the_queries_pinned(self):
        """``scan_candidates`` asks for ``batch_left = n_queries``."""
        assert scan_shape(2, 150_000, batch_left=2, workers=1) == (2, 150_000)
        assert scan_shape(64, 150_000, batch_left=64, workers=1) == (64, 16_384)
        rows, width = scan_shape(
            64, 150_000, batch_left=64, buffer_budget_bytes=1 << 20, workers=1
        )
        assert rows == 64 and 4 * 64 * width + 4 * 64 * (width // CHUNK) <= 1 << 20

    def test_a_split_budget_is_never_exceeded(self):
        """More workers than the parent's fixed point settled on still
        hold ``workers`` blocks within the budget."""
        for workers in (2, 4, 8):
            rows, width = scan_shape(
                4000, 4000, buffer_budget_bytes=16 << 20, workers=workers,
                morsel_rows=1024, row_work=4000 * 8,
            )
            assert workers * 4 * rows * width <= 16 << 20

    def test_invalid_edges_and_budgets(self):
        with pytest.raises(BufferBudgetError, match="invalid batch shape"):
            scan_shape(10, 10, batch_left=0, workers=1)
        with pytest.raises(BufferBudgetError, match="FP32 cell"):
            scan_shape(10, 10, buffer_budget_bytes=3, workers=1)


class TestResolve:
    """Steps 1-2 of the rule: explicit edges, then the budget."""

    def test_defaults_to_full_matrix(self):
        assert scan_shape(100, 200) == (100, 200)

    def test_explicit_batches_clamped_to_inputs(self):
        assert scan_shape(10, 10, batch_left=50, batch_right=3) == (10, 3)

    def test_budget_square(self):
        bl, br = scan_shape(1000, 1000, buffer_budget_bytes=4 * 10_000)
        assert bl * br <= 10_000
        assert bl == br == 100

    def test_budget_below_one_cell(self):
        with pytest.raises(BufferBudgetError, match="FP32 cell"):
            scan_shape(10, 10, buffer_budget_bytes=2)

    def test_empty_relations(self):
        assert scan_shape(0, 5) == (1, 5)
        assert scan_shape(5, 0) == (5, 1)
        assert scan_shape(0, 0) == (1, 1)

    def test_reserve_shrinks_dense_block(self):
        plain = scan_shape(1000, 1000, buffer_budget_bytes=40_000)
        reserved = scan_shape(
            1000, 1000, buffer_budget_bytes=40_000, reserve_bytes_per_row=36
        )
        assert reserved[0] * reserved[1] < plain[0] * plain[1]
        # Dense block plus reserved state stays within the budget.
        bl, br = reserved
        assert bl * br * 4 + bl * 36 <= 40_000

    def test_reserve_too_large_for_budget(self):
        with pytest.raises(BufferBudgetError):
            scan_shape(
                1000, 1000, buffer_budget_bytes=64, reserve_bytes_per_row=1 << 20
            )

    def test_explicit_sizes_never_budget_capped(self):
        """A caller pinning both edges (mini-batch ablations) gets exactly
        those edges even when they exceed the budget."""
        assert scan_shape(
            5000, 5000, batch_left=2000, batch_right=2000, buffer_budget_bytes=4 * 100
        ) == (2000, 2000)

    def test_single_explicit_edge_kept_other_derived(self):
        bl, br = scan_shape(1000, 1000, batch_left=50, buffer_budget_bytes=4 * 1000)
        assert bl == 50
        assert br == 1000 // 50  # remaining budget cells per left row

    def test_instance_budget_used_when_not_overridden(self, small_vectors):
        """An engine's own budget shapes the joins run on it; a join's
        ``buffer_budget_bytes=`` overrides it."""
        from repro.core import ThresholdCondition, tensor_join

        left, right = small_vectors
        engine = ExecutionEngine(n_threads=1, buffer_budget_bytes=4 * 100)
        own = tensor_join(left, right, ThresholdCondition(0.4), engine=engine)
        assert own.stats.peak_buffer_elements <= 100
        assert own.stats.extra["peak_intermediate_bytes"] <= 4 * 100
        wide = tensor_join(
            left, right, ThresholdCondition(0.4), engine=engine,
            buffer_budget_bytes=1 << 20,
        )
        assert wide.stats.peak_buffer_elements > 100
        assert wide.pairs() == own.pairs()
