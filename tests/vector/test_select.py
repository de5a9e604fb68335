"""The batch-major select against a naive oracle: a full stable sort by
``(score desc, id asc)`` for top-k, a full-width compare for thresholds."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    _triple_order,
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


#: Scores that tie exactly, both zeros, both infinities, a denormal —
#: beside any finite fp32.
_SCORES = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 0.5, 1e-40, float("-inf"), float("inf")]
) | st.floats(width=32, allow_nan=False)
#: Few rows and ids, so runs of equal ``(row, score)`` and duplicate
#: triples are common; one row and one id too large for a 64-bit key.
_TRIPLES = st.lists(
    st.tuples(
        st.integers(0, 3) | st.just((1 << 31) + 5),
        st.integers(0, 5) | st.sampled_from([(1 << 32) - 1, 1 << 32]),
        _SCORES,
    ),
    max_size=60,
)


class TestFoldOrder:
    """The fold's one-key sort is the three-key lexsort it replaced."""

    @staticmethod
    def columns(triples):
        rows, ids, scores = zip(*triples) if triples else ((), (), ())
        return (
            np.array(rows, dtype=np.int64),
            np.array(ids, dtype=np.int64),
            np.array(scores, dtype=np.float32),
        )

    @given(_TRIPLES)
    @example([(0, 5, 0.0), (0, 0, -0.0)])  # equal scores: the id decides
    @example([(0, 1, float("-inf")), (0, 0, float("-inf")), (0, 2, 1e-40)])
    @settings(max_examples=300, deadline=None)
    def test_order_is_row_then_score_desc_then_id_asc(self, triples):
        rows, ids, scores = self.columns(triples)
        got = _triple_order(rows, ids, scores)
        want = np.lexsort((ids, -scores, rows))
        # The triples in order, not the permutation: duplicates of one
        # triple (and +0.0 beside -0.0) may swap places.
        for column in (rows, ids, scores):
            np.testing.assert_array_equal(column[got], column[want])

    @given(_TRIPLES, st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_fold_keeps_each_rows_k_best_of_that_order(self, triples, k):
        rows, ids, scores = self.columns([t for t in triples if t[0] < 4])
        reducer = TopKReducer(4, k)
        for part in np.array_split(np.arange(len(rows)), 3):
            reducer.merge(rows[part], ids[part], scores[part])
        order = np.lexsort((ids, -scores, rows))
        rank = np.arange(len(rows)) - np.searchsorted(rows[order], rows[order])
        want = order[rank < k]
        for got, column in zip(reducer.finalize(), (rows, ids, scores)):
            np.testing.assert_array_equal(got, column[want])

    def test_rows_or_ids_past_the_key_take_the_lexsort(self, monkeypatch):
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(
            np, "lexsort", lambda keys: calls.append(len(keys)) or lexsort(keys)
        )
        scores = np.array([0.5, 0.5, 0.25], dtype=np.float32)
        small = np.array([2, 1, 0])
        assert _triple_order(small, small, scores).tolist() == [2, 1, 0]
        assert calls == []  # no tie, no lexsort
        for rows, ids in (
            (np.array([1 << 31, 1, 0]), small),
            (small, np.array([1 << 32, 1, 0])),
            (small, np.array([-1, 1, 0])),
        ):
            assert _triple_order(rows, ids, scores).tolist() == np.lexsort(
                (ids, -scores, rows)
            ).tolist()
        assert calls == [3, 3, 3, 3, 3, 3]  # the fallback, then the oracle


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
        ones.  One bound since PR 24 (the sweep, 834 x 8,000 x 64, edge
        209: the whole 6.4 MiB strip 11.9 ms, cut at 4 MiB 13.6, at 2 MiB
        15.3 — the wider the cheaper, so the bound is the memory a worker
        may hold): 125 x 40,000 (20 MB) is cut to 8 MiB blocks, twice as
        wide as the 4 MiB ones before (edge 125: 134.2 -> 126.5 ms)."""
        assert 209 * 8_000 * 4 <= BLOCK_BYTES < 125 * 40_000 * 4
        assert block_shape(209, 8_000) == (209, 8_000)
        assert block_shape(125, 40_000) == (125, 16_768)
        assert block_shape(418, 8_000) == (418, 4_992)  # 13 MB: cut

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
EIGHT_THREADS = dict(n_threads=8)


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
    """The one shape table: literal ``(batch_left, batch_right)`` of the
    rule as ``scan_join`` asks it.  The ``ONE_THREAD`` rows are an
    engine-less join (one worker with the default 1,024-row morsels).
    PR 24 re-pinned every row whose strip is over ``BLOCK_BYTES`` (8 MiB,
    was a 4 MiB block under an 8 MiB strip bound) or whose join has work
    to spare and ``WIDE_TASK_ROWS`` left rows a task; each carries the
    reading of ``tools/sweep_blocks.py`` (one thread, GEMM + select +
    fold ms; ``docs/measurements/PR-24.md``) the new value rests on."""

    @pytest.mark.parametrize(
        "case, engine, expected",
        [
            # (n_left, n_right, dim, k), engine, shape
            # Two workers get 2 x 500 rows, not 8 x 125: the GEMM runs at
            # 124 GFLOP/s where it ran at 96, and 10 right blocks a task
            # are folded where 5 x 4 were: (125, 8384) 134.2 ms ->
            # (500, 4192) 108.9.
            ((1000, 40_000, 128, 10), TWO_THREADS, (500, 4192)),
            # 125-row morsels pinned: only the block widens, 4 -> 8 MiB
            # (edge 125: 8,384 columns 134.2 ms, 16,768 126.5).
            ((1000, 40_000, 128, 10), ONE_THREAD_125, (125, 16_768)),
            ((1000, 40_000, 128, None), TWO_THREADS, (500, 4192)),
            ((1000, 40_000, 128, None), ONE_THREAD_125, (125, 16_768)),
            # Not a join with work to spare (4 x MIN_TASK_WORK in all):
            # it keeps its four tasks and their stealing slack.
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
            # The > 4,000-row left side (ROADMAP item 2): 625-row tasks
            # as before, blocks twice as wide — was (625, 1664) (edge 500:
            # the select at 2,080 columns 35.6 ms, at 4,192 23.2).
            ((5000, 5000, 100, None), TWO_THREADS, (625, 3328)),
            ((5000, 5000, 100, None), ONE_THREAD_125, (125, 5000)),
            ((209, 8000, 64, 1), ONE_THREAD, (209, 8000)),
            ((157, 2311, 24, 5), ONE_THREAD, (157, 2311)),
            # One 125-row task: the block widens, 4 -> 8 MiB, as above.
            ((125, 40_000, 128, 10), ONE_THREAD, (125, 16_768)),
            # Was (1000, 1024), the narrowest chunkable width: edge
            # 1,000 at 1,024 columns 143.7 ms, at 2,080 117.2.
            ((5000, 5000, 100, None), ONE_THREAD, (1000, 2080)),
            # A lone worker's tasks are 500 rows like anyone's — was
            # (250, 4192): 124.4 -> 108.9 ms.
            ((1000, 40_000, 128, 10), ONE_THREAD, (500, 4192)),
            ((1000, 40_000, 128, None), ONE_THREAD, (500, 4192)),
            ((835, 8000, 64, 1), ONE_THREAD, (209, 8000)),
            # Tasks under MIN_TASK_ROWS rows are not cut; the block
            # widens, 4 -> 8 MiB.
            ((125, 40_000, 128, 10), TWO_THREADS, (125, 16_768)),
            # Never fewer tasks than workers: eight workers keep 8 x 125
            # rows (96 GFLOP/s on all eight beats 124 on two).
            ((1000, 40_000, 128, 10), EIGHT_THREADS, (125, 16_768)),
            ((2000, 40_000, 128, 10), EIGHT_THREADS, (250, 8384)),
        ],
    )
    def test_derived_shapes(self, case, engine, expected):
        assert _join_shape(*case, engine) == expected

    @pytest.mark.parametrize(
        "engine, edges, expected",
        [
            (TWO_THREADS, dict(buffer_budget_bytes=1 << 20), (356, 207)),
            (ONE_THREAD, dict(buffer_budget_bytes=1 << 20), (504, 354)),
            # A budget caps derived edges before the task floor applies:
            # the two rows above did not move.  A pinned left edge only
            # gets the wider block (edge 125: 134.2 -> 126.5 ms) ...
            (TWO_THREADS, dict(batch_left=125), (125, 16_768)),
            (ONE_THREAD, dict(batch_left=125), (125, 16_768)),
            # ... and a pinned width only the taller task (GEMM 96 -> 124
            # GFLOP/s); were (125, 1100) and (250, 1100).
            (TWO_THREADS, dict(batch_right=1100), (500, 1100)),
            (TWO_THREADS, dict(batch_left=3, batch_right=7), (3, 7)),
            (ONE_THREAD, dict(batch_right=1100), (500, 1100)),
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
        # One block constant: 8 MiB of a 64-query group is 32,768 columns
        # (was 16,384; the select is the cheaper per cell the wider).
        assert scan_shape(64, 150_000, batch_left=64, workers=1) == (64, 32_768)
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
