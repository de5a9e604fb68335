"""Property-based tests for the batch-major select: whatever the scores,
block widths and k, the reducer equals a full stable sort by
``(score desc, id asc)`` and the gate equals a full-width compare."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ThresholdCondition, TopKCondition, tensor_join
from repro.vector.select import CHUNK, MIN_STRIDE, TopKReducer, select_above

#: Twice the narrowest width that takes the chunked path.
MAX_WIDTH = 2 * MIN_STRIDE * CHUNK


@st.composite
def score_blocks(draw):
    """A score matrix wide enough to chunk, with few distinct values on some
    draws so exact ties land on chunk and block boundaries."""
    n = draw(st.integers(min_value=1, max_value=6))
    w = draw(st.integers(min_value=1, max_value=MAX_WIDTH))
    levels = draw(st.sampled_from([2, 5, 1000]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    return (rng.integers(0, levels, size=(n, w)) / levels).astype(np.float32)


class TestSelectProperties:
    @given(
        scores=score_blocks(),
        k=st.integers(min_value=1, max_value=3 * CHUNK),
        width=st.integers(min_value=1, max_value=MAX_WIDTH),
    )
    @settings(max_examples=150, deadline=None)
    def test_reducer_matches_stable_sort(self, scores, k, width):
        reducer = TopKReducer(scores.shape[0], k)
        for r0 in range(0, scores.shape[1], width):
            reducer.push(scores[:, r0 : r0 + width], r0)
        rows, ids, picked = reducer.finalize()
        want = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        kk = want.shape[1]
        assert rows.tolist() == np.repeat(np.arange(len(scores)), kk).tolist()
        assert ids.reshape(len(scores), kk).tolist() == want.tolist()
        assert picked.tolist() == np.take_along_axis(scores, want, 1).ravel().tolist()

    @given(scores=score_blocks(), level=st.integers(min_value=0, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_gate_matches_full_compare(self, scores, level):
        floor = np.float32(level / 5)  # often exactly an attained score
        rows, cols, picked = select_above(scores, floor)
        want_r, want_c = np.nonzero(scores >= floor)
        assert sorted(zip(rows.tolist(), cols.tolist())) == list(
            zip(want_r.tolist(), want_c.tolist())
        )
        assert picked.tolist() == scores[rows, cols].tolist()

    @given(
        seed=st.integers(min_value=0, max_value=1000),
        n_right=st.integers(min_value=1, max_value=MAX_WIDTH),
        batch_right=st.integers(min_value=1, max_value=MAX_WIDTH),
        k=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_join_block_shape_never_shows(self, seed, n_right, batch_right, k):
        rng = np.random.default_rng(seed)
        # Small dyadic entries taken as already normalized: every dot
        # product is exact in fp32 whatever the GEMM block shape, so the
        # joins are full of *exact* score ties only the id order resolves,
        # and the threshold is a score many pairs attain exactly.
        left = (rng.integers(-2, 3, size=(5, 5)) / 8).astype(np.float32)
        right = (rng.integers(-2, 3, size=(n_right, 5)) / 8).astype(np.float32)
        for condition in (TopKCondition(k), ThresholdCondition(0.0625)):
            want = tensor_join(
                left, right, condition, batch_right=n_right, assume_normalized=True
            )
            got = tensor_join(
                left, right, condition, batch_right=batch_right,
                assume_normalized=True,
            )
            assert got.left_ids.tolist() == want.left_ids.tolist()
            assert got.right_ids.tolist() == want.right_ids.tolist()
            assert got.scores.tolist() == want.scores.tolist()
