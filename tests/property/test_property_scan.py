"""Property-based test for the shared-scan core."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ThresholdCondition, TopKCondition
from repro.core.eselect import PRESCREEN_MARGIN, exact_select
from repro.core.scan import (
    dense_score_block,
    merge_topk,
    scan_candidates,
    split_rows,
)
from repro.vector.norms import normalize_rows

DIM = 4


@st.composite
def scans(draw):
    """A relation drawn from a handful of directions (so exact score ties
    are everywhere), a group of queries, and how the scan is cut."""
    palette = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=120))
    n_queries = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    directions = normalize_rows(rng.standard_normal((palette, DIM)).astype(np.float32))
    relation = directions[rng.integers(0, palette, n)]
    queries = normalize_rows(rng.standard_normal((n_queries, DIM)).astype(np.float32))
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=n), max_size=3)))
    return relation, queries, [0, *[c for c in cuts if c < n], n], draw(
        st.integers(min_value=1, max_value=40)  # rows per block
    )


@given(
    scan=scans(),
    k=st.integers(min_value=1, max_value=12),
    pad=st.integers(min_value=0, max_value=3),
    threshold=st.floats(min_value=-0.9, max_value=0.9),
)
@settings(max_examples=150, deadline=None)
def test_any_cut_of_the_scan_selects_like_a_full_exact_pass(scan, k, pad, threshold):
    """However the relation is cut into spans and blocks, prescreen +
    guard + exact select equals exact select over every row — for every
    query at once, top-k (ties at the k-th place included) and threshold."""
    relation, queries, edges, block_rows = scan
    n, n_queries = len(relation), len(queries)
    rows = list(range(n_queries))
    kpad = min(n, k + pad)
    floors = np.full(n_queries, threshold - PRESCREEN_MARGIN, np.float32)
    parts, hits = [], [[] for _ in rows]
    for lo, hi in zip(edges[:-1], edges[1:]):
        span = scan_candidates(
            dense_score_block(relation, queries),
            lo, hi, n_queries, rows, kpad, rows, floors,
            budget_bytes=4 * n_queries * block_rows,
        )
        parts.append(span.triples)
        hit_rows, hit_ids, _ = span.hits
        for j, found in enumerate(split_rows(hit_rows, hit_ids, n_queries)):
            hits[j].append(found)
    cand_ids, cand_floor = merge_topk(parts, n_queries, kpad)
    everything = np.arange(n)
    topk, above = TopKCondition(k), ThresholdCondition(threshold)
    for j, qvec in enumerate(queries):
        got = exact_select(relation, cand_ids[j], qvec, topk, float(cand_floor[j]))
        want = exact_select(relation, everything, qvec, topk)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        got = exact_select(relation, np.concatenate(hits[j]), qvec, above)
        want = exact_select(relation, everything, qvec, above)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
