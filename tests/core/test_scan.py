"""Differential test of the shared-scan core and the three paths over it.

Part A drives :func:`repro.core.scan.scan_candidates` directly with each
``score_block`` representation and checks its one promise against a
float64 oracle: candidates are a superset of the true answer.  Part B
checks the consequence end to end: a serial ``eselect``, a coalesced group
and a 2-shard group return ``np.array_equal`` tables for every group size.
Part C holds every join and selection entry point over the core to the
same oracle, for every way the scan can be cut into blocks, tasks and
groups — and checks that each of them rejects a non-finite row or query.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import (
    QuantizedRelation,
    ThresholdCondition,
    TopKCondition,
    ejoin,
    eselect,
    precision_error_bound,
    prefetch_nlj,
    quantized_eselect,
    quantized_tensor_join,
    select_group,
    tensor_join,
    tensor_join_fp16,
    tensor_join_non_batched,
)
from repro.core.eselect import PRESCREEN_MARGIN, TOPK_PRESCREEN_PAD
from repro.core.precision import fp16_rows, quantize_fp16
from repro.core.scan import (
    dense_score_block,
    merge_topk,
    prove_topk,
    row_major_scores,
    scan_candidates,
    split_rows,
)
from repro.core.tensor_join import unit_rows
from repro.embedding import HashingEmbedder
from repro.errors import JoinError
from repro.engine import ExecutionEngine
from repro.query import Engine
from repro.relational import Catalog, DataType, Field, Table
from repro.relational.column import Column
from repro.service import QueryService
from repro.vector import Int8Quantizer, stable_dot_scores
from repro.vector.norms import normalize_rows, normalize_vector
from repro.workloads import unit_vectors

DIM = 16
N_PLAIN = 3_300  # not a multiple of any block width used below
MODEL = "m"
GROUP_SIZES = (1, 2, 3, 8, 64)
K = 5
THRESHOLD = 0.55


@pytest.fixture(scope="module")
def corpus() -> np.ndarray:
    return unit_vectors(N_PLAIN, DIM, stream="scan-tests/plain").astype(np.float32)


@pytest.fixture(scope="module")
def queries() -> np.ndarray:
    return unit_vectors(64, DIM, stream="scan-tests/queries").astype(np.float32)


# ---------------------------------------------------------------------------
# Part A — the core against a float64 oracle, per representation
# ---------------------------------------------------------------------------
#: The :class:`~repro.core.scan.Representation` each scan join is handed,
#: from its own constructor: the fp16 rows' scanned scores are the emitted
#: ones (no re-rank), so their provable error is the precision bound.
_CONSTRUCTED = {
    "fp32-unit-rows": lambda corpus: (unit_rows(corpus), 0.0),
    "fp16-rows": lambda corpus: (
        fp16_rows(quantize_fp16(corpus)), precision_error_bound(DIM)
    ),
    "int8-store": lambda corpus: (
        QuantizedRelation.build(corpus, assume_normalized=True).representation(), None
    ),
}


def _representation(name: str, corpus: np.ndarray, q: np.ndarray):
    """``(score_block, bound, bias)``: the closure the core scans, the
    representation's provable score error and the per-query constant the
    closure leaves out."""
    if name in _CONSTRUCTED:
        # One scorer per task, as a scan join calls it: a dense scorer
        # hands out views of one buffer, so this also checks that the core
        # is done with a block before it asks for the next.
        representation, bound = _CONSTRUCTED[name](corpus)
        score_block, bias = representation.scorer(representation.prepare(q), len(corpus))
        return score_block, representation.bound if bound is None else bound, bias
    if name == "fp32":
        return dense_score_block(corpus, q), 0.0, None
    if name == "fp16":
        half = corpus.astype(np.float16)
        resid = np.linalg.norm(corpus - half.astype(np.float32), axis=1).max()
        return (
            lambda a, b: row_major_scores(half[a:b].astype(np.float32), q)
        ), float(resid) + 1e-5, None
    quantizer = Int8Quantizer(DIM).fit(corpus)
    rows = quantizer.encode(corpus)
    score, bias = quantizer.scorer(q)
    return (
        lambda a, b: score(rows[a:b])
    ), float(quantizer.score_error_bound()), bias


@pytest.mark.parametrize("representation", ["fp32", "fp16", "int8", *_CONSTRUCTED])
@pytest.mark.parametrize("n_queries", GROUP_SIZES)
@pytest.mark.parametrize(
    "lo,hi,block_rows",
    [
        (0, N_PLAIN, None),  # the whole table is smaller than one block
        (0, N_PLAIN, 1_000),  # four blocks, the last one partial
        (137, N_PLAIN - 211, 1_024),  # a range strictly inside the table
    ],
)
def test_candidates_are_a_superset_of_the_oracle_answer(
    corpus, queries, representation, n_queries, lo, hi, block_rows
):
    q = queries[:n_queries]
    score_block, bound, bias = _representation(representation, corpus, q)
    # Even rows want top-k, odd rows a threshold, row 0 both (a duplicate
    # vector whose members carry different conditions).
    topk_rows = sorted({0, *range(0, n_queries, 2)})
    thr_rows = sorted({0, *range(1, n_queries, 2)})
    kpad = K + TOPK_PRESCREEN_PAD
    scan = scan_candidates(
        score_block, lo, hi, n_queries, topk_rows, kpad, thr_rows,
        THRESHOLD - PRESCREEN_MARGIN,
        budget_bytes=None if block_rows is None else 4 * n_queries * block_rows,
        bound=bound, bias=bias,
    )
    width = hi - lo if block_rows is None else block_rows
    assert scan.blocks == -(-(hi - lo) // width)
    assert scan.cells == n_queries * (hi - lo)
    assert scan.peak_bytes >= 4 * n_queries * min(width, hi - lo)
    cand_ids, cand_floor = merge_topk([scan.triples], len(topk_rows), kpad)

    oracle = q.astype(np.float64) @ corpus[lo:hi].astype(np.float64).T
    proved = 0
    for j, row in enumerate(topk_rows):
        ids = cand_ids[j]
        assert len(ids) == kpad and len(set(ids.tolist())) == kpad
        assert ids.min() >= lo and ids.max() < hi
        kth = np.sort(oracle[row])[-K]
        answer = np.flatnonzero(oracle[row] >= kth) + lo
        if cand_floor[j] + bound <= kth - PRESCREEN_MARGIN:
            # The completeness guard accepts these candidates as they are.
            assert set(answer.tolist()) <= set(ids.tolist())
            proved += 1
    if representation in ("fp32", "fp32-unit-rows"):
        assert proved == len(topk_rows)  # no error bound: never needs the rescan
    hit_rows, hit_ids, hit_scores = scan.hits
    # Returned scores carry the bias: they are the approximate scores.
    assert np.allclose(
        hit_scores, oracle[np.asarray(thr_rows)[hit_rows], hit_ids - lo],
        atol=bound + PRESCREEN_MARGIN,
    )
    for j, hits in enumerate(split_rows(hit_rows, hit_ids, len(thr_rows))):
        assert np.all(np.diff(hits) > 0), "threshold hits must ascend, no repeats"
        assert not len(hits) or (hits[0] >= lo and hits[-1] < hi)
        answer = np.flatnonzero(oracle[thr_rows[j]] >= THRESHOLD) + lo
        assert set(answer.tolist()) <= set(hits.tolist())


def test_k_at_least_n_keeps_every_row(corpus, queries):
    n = 50
    scan = scan_candidates(
        dense_score_block(corpus, queries[:3]),
        0, n, 3, (0, 1, 2), n + 7, (), (),
    )
    ids, floors = merge_topk([scan.triples], 3, n + 7)
    assert all(sorted(row.tolist()) == list(range(n)) for row in ids)
    assert np.all(np.isneginf(floors))  # nothing dropped, nothing to guard


def test_prove_topk_rescans_exactly_the_rows_it_cannot_prove(corpus, queries):
    """Approximate scores within ``bound`` of exact ones: a row whose floor
    plus the bound and margin reaches its k-th exact candidate takes the
    one pass — scored on its own — and every row comes out exact."""
    n_queries, bound, kpad = 8, 0.12, K + TOPK_PRESCREEN_PAD
    exact = queries[:n_queries] @ corpus.T
    noise = np.random.default_rng(5).uniform(-bound, bound, exact.shape)
    approx = (exact + noise).astype(np.float32)
    scan = scan_candidates(
        lambda a, b: approx[:, a:b], 0, N_PLAIN, n_queries, range(n_queries), kpad, (), ()
    )
    rows, ids, _ = scan.triples
    _, floors = merge_topk([scan.triples], n_queries, kpad)
    kth = np.array([np.sort(exact[r, ids[rows == r]])[-K] for r in range(n_queries)])
    unproved = np.flatnonzero(floors + bound + PRESCREEN_MARGIN > kth)
    assert 0 < len(unproved) < n_queries
    asked = []

    def rescan(failed):
        asked.append(failed.tolist())
        return (lambda a, b: approx[failed, a:b]), None

    (got_rows, got_ids, got_scores), failed, rescanned = prove_topk(
        rows, ids, floors, K, N_PLAIN, lambda r, i: exact[r, i], rescan, bound=bound
    )
    assert failed.tolist() == unproved.tolist() and asked == [unproved.tolist()]
    assert rescanned.cells == len(unproved) * N_PLAIN
    for r in range(n_queries):
        want = np.lexsort((np.arange(N_PLAIN), -exact[r]))[:K]
        assert got_ids[got_rows == r].tolist() == want.tolist(), r
        assert np.array_equal(got_scores[got_rows == r], exact[r, want]), r


def test_empty_range_scans_nothing(corpus, queries):
    scan = scan_candidates(
        dense_score_block(corpus, queries[:2]),
        10, 10, 2, (0,), 3, (1,), (0.1,),
    )
    assert scan.blocks == scan.cells == scan.peak_bytes == 0
    assert all(len(part) == 0 for part in scan.triples + scan.hits)


def test_pinned_width_is_the_block_width(corpus, queries):
    scan = scan_candidates(
        dense_score_block(corpus, queries[:2]),
        0, 100, 2, (0, 1), 3, (), (), width=7,
    )
    assert scan.blocks == -(-100 // 7)


def test_score_view_is_not_a_copy(corpus, queries):
    for n_queries in (1, 2, 8):
        scores = row_major_scores(corpus[:100], queries[:n_queries])
        assert scores.shape == (n_queries, 100)
        assert scores.base is not None  # a view of the row-major product


# ---------------------------------------------------------------------------
# Part B — eselect == coalesced == 2-shard, for every group size
# ---------------------------------------------------------------------------
def _table(vectors: np.ndarray) -> Table:
    return Table.from_columns(
        [
            Column(Field("id", DataType.INT64), np.arange(len(vectors))),
            Column(Field("emb", DataType.TENSOR, dim=DIM), vectors),
        ]
    )


def _ties_corpus() -> np.ndarray:
    """60 copies of one vector (more than ``TOPK_PRESCREEN_PAD`` exact ties
    at any k-th place they reach) scattered through 500 rows."""
    base = unit_vectors(500, DIM, stream="scan-tests/ties").astype(np.float32)
    base[np.arange(0, 480, 8)] = base[3]
    return base


@pytest.fixture(scope="module")
def services(corpus):
    catalog = Catalog()
    catalog.register("plain", _table(corpus))
    catalog.register("ties", _table(_ties_corpus()))
    engine = Engine(catalog)
    engine.models.register(MODEL, HashingEmbedder(dim=DIM))
    # Near-free dispatch and no row floor: the pool fans out even these tables.
    engine.cost_params = replace(engine.cost_params, shard_dispatch=1e-9)
    common = dict(coalesce=True, result_cache_size=0, max_inflight=256)
    coalesced = QueryService(engine, **common)
    sharded = QueryService(engine, shard_procs=2, **common)
    sharded.shard_pool.min_rows = 1
    yield engine, coalesced, sharded
    coalesced.shutdown()
    sharded.shutdown()


def _build(engine, table, vector, cond):
    return engine.query(table).esimilar("emb", vector, model=MODEL, **cond)


def _blocker(engine, table):
    def make(i):
        vector = np.random.default_rng(20_000 + i).standard_normal(DIM)
        return _build(engine, table, vector.astype(np.float32), {"top_k": 1})

    return make


def _run_group(service, hold_scan_slots, engine, table, members):
    """Queue ``members`` behind held slots so they share ONE scan."""
    before = service.stats_snapshot()["coalescer"]
    held = hold_scan_slots(service, _blocker(engine, table))
    results = held.run_queued(
        [
            lambda v=v, c=c: service.submit(_build(engine, table, v, c))
            for v, c in members
        ]
    )
    after = service.stats_snapshot()["coalescer"]
    assert after["groups"] - before["groups"] == held.slots + 1
    assert (
        after["coalesced_queries"] - before["coalesced_queries"]
        == held.slots + len(members)
    )
    return results


def _assert_same(reference, got, context):
    assert got is not None, f"{context}: no result"
    assert reference.schema.names == got.schema.names, context
    for name in reference.schema.names:
        assert np.array_equal(reference.array(name), got.array(name)), (
            f"{context}: column {name!r} differs"
        )


def _attained_score(engine, table, vector, rank: int) -> float:
    """The ``rank``-th best exact score of ``vector`` over ``table`` — a
    threshold some row attains exactly."""
    ctx = engine
    normalized = ctx.normalized_matrix_for(
        (table, "emb", MODEL), ctx.catalog.get(table)
    )
    exact = stable_dot_scores(normalized, normalize_vector(vector))
    return float(np.sort(exact)[-rank])


def _members(engine, queries, size: int) -> list[tuple[np.ndarray, dict]]:
    """``size`` requests mixing every condition shape the core demuxes."""
    conditions = [
        {"top_k": K},
        {"threshold": THRESHOLD},
        {"top_k": N_PLAIN + 7},  # k >= n
        {"top_k": 1, "min_similarity": 0.2},
        {"threshold": _attained_score(engine, "plain", queries[4], 7)},
        {"top_k": 3 * K},
    ]
    members = [
        (queries[i], conditions[i % len(conditions)]) for i in range(size)
    ]
    if size >= 2:
        # A duplicate vector carrying a different condition than member 0.
        members[1] = (queries[0], {"threshold": THRESHOLD})
    return members


@pytest.mark.shard
@pytest.mark.service
@pytest.mark.parametrize("size", GROUP_SIZES)
def test_eselect_coalesced_and_sharded_agree(
    services, queries, hold_scan_slots, size
):
    engine, coalesced, sharded = services
    members = _members(engine, queries, size)
    serial = [_build(engine, "plain", v, c).execute() for v, c in members]
    if size > 4:
        attained = members[4][1]["threshold"]
        assert np.any(serial[4].array("similarity") == np.float32(attained))
    sharded_before = sharded.stats_snapshot()["coalescer"]["sharded_groups"]
    for name, service in (("coalesced", coalesced), ("sharded", sharded)):
        got = _run_group(service, hold_scan_slots, engine, "plain", members)
        for i, (want, table) in enumerate(zip(serial, got)):
            _assert_same(want, table, f"{name} group of {size}, member {i}")
    snapshot = sharded.stats_snapshot()
    assert snapshot["coalescer"]["sharded_groups"] > sharded_before
    assert snapshot["shard"]["errors"] == 0


@pytest.mark.shard
@pytest.mark.service
def test_more_ties_than_the_pad_force_the_second_pass(
    services, hold_scan_slots
):
    """Every path answers a k-th place tied 60 ways by rescanning at the
    fixed floor, and keeps the smallest ids like the serial scan."""
    engine, coalesced, sharded = services
    tied = _ties_corpus()[3]
    members = [
        (tied, {"top_k": K}),
        (tied, {"top_k": 2 * K, "min_similarity": 0.5}),
        (unit_vectors(1, DIM, stream="scan-tests/other")[0], {"top_k": K}),
    ]
    serial = [_build(engine, "ties", v, c).execute() for v, c in members]
    assert serial[0].array("id").tolist() == [0, 3, 8, 16, 24]
    for name, service in (("coalesced", coalesced), ("sharded", sharded)):
        before = service.stats_snapshot()["coalescer"]["fallbacks"]
        got = _run_group(service, hold_scan_slots, engine, "ties", members)
        for i, (want, table) in enumerate(zip(serial, got)):
            _assert_same(want, table, f"{name} ties, member {i}")
        assert service.stats_snapshot()["coalescer"]["fallbacks"] - before >= 2


# ---------------------------------------------------------------------------
# Part C — every join entry point == the float64 oracle, however it is cut
# ---------------------------------------------------------------------------
J_LEFT, J_RIGHT, J_K = 11, 14, 3


def _grid_vectors(n: int, seed: int) -> np.ndarray:
    """Rows with four +-1 entries out of ``DIM``: every norm is exactly 2,
    so unit rows are +-0.5 and every dot product is a multiple of 0.25 —
    exact in fp32 in any summation order, and full of ties."""
    rng = np.random.default_rng(seed)
    out = np.zeros((n, DIM), dtype=np.float32)
    for row in out:
        row[rng.choice(DIM, 4, replace=False)] = rng.choice([-1.0, 1.0], 4)
    return out


@pytest.fixture(scope="module")
def join_inputs():
    left, right = _grid_vectors(J_LEFT, 1), _grid_vectors(J_RIGHT, 2)
    right[5] = right[2] = right[9]  # exact ties for whoever ranks them
    scores = (left.astype(np.float64) / 2.0) @ (right.astype(np.float64) / 2.0).T
    return left, right, scores


def _join_conditions(scores: np.ndarray) -> dict:
    kth = np.sort(scores, axis=1)[:, -J_K]
    tied_rows = ((scores == kth[:, None]).sum(axis=1) > 1).sum()
    assert tied_rows >= J_LEFT // 2  # ties at the k-th place, most rows
    return {
        "topk-ties": TopKCondition(J_K),
        "threshold-attained": ThresholdCondition(float(scores[3, 4])),
        "k-beyond-n": TopKCondition(J_RIGHT + 1),
        "min-similarity": TopKCondition(J_K + 2, min_similarity=0.25),
    }


def _oracle_join(scores: np.ndarray, condition) -> tuple[np.ndarray, np.ndarray]:
    """(left ids, right ids) in the operators' order, NumPy float64 only."""
    if isinstance(condition, ThresholdCondition):
        return np.nonzero(scores >= condition.threshold)
    left_ids, right_ids = [], []
    for i, row in enumerate(scores):
        order = np.lexsort((np.arange(len(row)), -row))[: condition.k]
        if condition.min_similarity is not None:
            order = order[row[order] >= condition.min_similarity]
        left_ids += [i] * len(order)
        right_ids += order.tolist()
    return np.asarray(left_ids), np.asarray(right_ids)


def _assert_within_budget(stats, shape: dict) -> None:
    """A budgeted scan holds its score block, chunk maxima and pooled
    candidates inside the Figure 7 buffer."""
    if "buffer_budget_bytes" in shape:
        assert stats.extra["peak_intermediate_bytes"] <= shape["buffer_budget_bytes"]


def _assert_selection(got, row_scores: np.ndarray, condition, context) -> None:
    """``got`` is the oracle's selection for one query: ids in the
    operators' order, their scores bit for bit."""
    want = np.asarray(_oracle_join(row_scores[None, :], condition)[1], dtype=np.int64)
    assert np.array_equal(got.ids, want), context
    assert np.array_equal(got.scores, row_scores[want].astype(np.float32)), context


SHAPES = {
    "derived": {},
    "explicit": {"batch_left": 3, "batch_right": 7},
    "budget": {"buffer_budget_bytes": 2048},
}
ENGINES = {"none": None, "1t": 1, "2t": 2}


def _fp32_entry_points(left, right, condition, shape, engine):
    yield "tensor_join", tensor_join(left, right, condition, engine=engine, **shape)
    # +-0.5 is exact in fp16 too: the fp16 representation of the same
    # body owes the same answer, bit for bit.
    yield "tensor_join_fp16", tensor_join_fp16(
        left, right, condition, engine=engine, **shape
    )
    kwargs = {"engine": engine} if engine is not None else {"n_threads": 2}
    yield "parallel-tensor", ejoin(
        left, right, condition, strategy="parallel-tensor", **shape, **kwargs
    )
    for strategy in ("tensor", "parallel-tensor"):
        yield f"ejoin/{strategy}", ejoin(
            left, right, condition, strategy=strategy, engine=engine, **shape
        )


@pytest.mark.usefixtures("schedule_every_task")
@pytest.mark.parametrize("threads", ENGINES)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize(
    "case", ["topk-ties", "threshold-attained", "k-beyond-n", "min-similarity"]
)
def test_fp32_joins_equal_the_oracle_and_each_other(join_inputs, case, shape, threads):
    left, right, scores = join_inputs
    condition = _join_conditions(scores)[case]
    want_l, want_r = _oracle_join(scores, condition)
    assert len(want_l) > 0
    n_threads = ENGINES[threads]
    engine = None if n_threads is None else ExecutionEngine(n_threads=n_threads)
    results = dict(_fp32_entry_points(left, right, condition, SHAPES[shape], engine))
    results["non_batched"] = tensor_join_non_batched(left, right, condition)
    results["prefetch_nlj"] = prefetch_nlj(left, right, condition)
    for name, got in results.items():
        assert np.array_equal(got.left_ids, want_l), name
        assert np.array_equal(got.right_ids, want_r), name
        assert np.array_equal(got.scores, scores[want_l, want_r].astype(np.float32)), name
        assert got.stats.pairs_emitted == len(want_l), name
        if name not in ("non_batched", "prefetch_nlj"):  # these take no shape
            _assert_within_budget(got.stats, SHAPES[shape])
    if n_threads == 2 and shape != "derived":
        assert engine.stats.morsels_dispatched > 0  # the cut ran on workers


@pytest.mark.quant
@pytest.mark.usefixtures("schedule_every_task")
@pytest.mark.parametrize("threads", ENGINES)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize(
    "method, door",
    [
        pytest.param("int8", "store", id="int8"),
        pytest.param("int8", "unit-store", id="int8-unit-store"),
        pytest.param("int8", "rows", id="int8-rows"),
    ],
)
@pytest.mark.parametrize(
    "case", ["topk-ties", "threshold-attained", "k-beyond-n", "min-similarity"]
)
def test_quantized_joins_equal_the_oracle(join_inputs, case, method, door, shape, threads):
    """Threshold results are exactly the oracle's set (sound prescreen,
    exact re-rank); a top-k is the oracle's at default settings too (each
    row proved by the error bound or rescanned at a fixed floor).  The
    codes come through each door a caller has: a store built from raw
    rows, one built from unit rows as they are (the planner's
    ``assume_normalized`` build) and the raw rows themselves, which the
    join and the selection encode on every call."""
    left, right, scores = join_inputs
    condition = _join_conditions(scores)[case]
    want_l, want_r = _oracle_join(scores, condition)
    n_threads = ENGINES[threads]
    engine = None if n_threads is None else ExecutionEngine(n_threads=n_threads)
    store = {
        "store": lambda: QuantizedRelation.build(right, method),
        "unit-store": lambda: QuantizedRelation.build(right / 2, method, assume_normalized=True),
        "rows": lambda: right,
    }[door]()
    results = {
        "quantized_tensor_join": quantized_tensor_join(
            left, store, condition, method=method, engine=engine, **SHAPES[shape]
        ),
        "ejoin": ejoin(
            left, right, condition, strategy=f"tensor-{method}",
            engine=engine, **SHAPES[shape],
        ),
    }
    for name, got in results.items():
        assert np.array_equal(got.left_ids, want_l), name
        assert np.array_equal(got.right_ids, want_r), name
        assert np.array_equal(got.scores, scores[want_l, want_r].astype(np.float32)), name
        assert got.stats.extra["rerank_candidates"] >= len(want_l)
        _assert_within_budget(got.stats, SHAPES[shape])
    # The selection is the join of one left row.
    budget = SHAPES[shape].get("buffer_budget_bytes")
    for row in (0, 3):
        got = quantized_eselect(
            store, left[row], condition, method=method, buffer_budget_bytes=budget
        )
        _assert_selection(got, scores[row], condition, f"row {row}")
        assert got.stats.strategy == f"eselect/{method}"
        _assert_within_budget(got.stats, SHAPES[shape])


@pytest.mark.quant
@pytest.mark.parametrize("method", ["int8"])
def test_quantized_threshold_pool_stays_inside_the_budget(corpus, queries, method):
    """A threshold block's hits are re-ranked and filtered before they
    pool, so what the scan holds across blocks is emitted pairs: the pool
    of candidates used to sit outside the budget (0.6 MB int8 against 64
    KiB on this 64 x 3,300 join)."""
    store = QuantizedRelation.build(corpus, method)
    condition, budget = ThresholdCondition(0.3), 64 * 1024
    free = quantized_tensor_join(queries, store, condition)
    tight = quantized_tensor_join(queries, store, condition, buffer_budget_bytes=budget)
    assert len(free) > 10 * len(queries)
    assert tight.stats.extra["rerank_candidates"] * 20 > budget  # the pool it no longer holds
    assert tight.stats.extra["peak_intermediate_bytes"] <= budget
    assert tight.stats.extra["rerank_candidates"] == free.stats.extra["rerank_candidates"]
    for name in ("left_ids", "right_ids", "scores"):
        assert np.array_equal(getattr(tight, name), getattr(free, name)), name


@pytest.mark.quant
@pytest.mark.usefixtures("schedule_every_task")
@pytest.mark.parametrize(
    "shape",
    [
        {"batch_left": 100, "batch_right": 1_000},  # four right blocks, the last short
        {"buffer_budget_bytes": 64 * 1024},
        {},
    ],
    ids=["explicit", "budget", "derived"],
)
@pytest.mark.parametrize(
    "condition", [TopKCondition(K), ThresholdCondition(THRESHOLD)], ids=["topk", "threshold"]
)
@pytest.mark.parametrize("representation", ["int8", "fp16"])
def test_wide_left_blocks_answer_alike_on_one_and_two_threads(
    corpus, representation, condition, shape
):
    """A left block over ``THIN_QUERIES`` rows casts every right block
    into buffers its *task* owns (int8 codes to fp32, scores beside them;
    fp16 rows upcast per block): tasks running side by side on two
    workers must emit what one worker emits, and a budget still bounds
    the score block plus what the select holds beside it."""
    left = corpus[-300:]
    if representation == "int8":
        store = QuantizedRelation.build(corpus, "int8")
        join = lambda engine: quantized_tensor_join(  # noqa: E731
            left, store, condition, engine=engine, **shape
        )
    else:
        join = lambda engine: tensor_join_fp16(  # noqa: E731
            left, corpus, condition, engine=engine, **shape
        )
    serial = join(None)
    assert len(serial) >= len(left)
    for threads in (1, 2):
        engine = ExecutionEngine(n_threads=threads)
        got = join(engine)
        if threads == 2:
            assert engine.stats.morsels_dispatched >= 2
        assert np.array_equal(got.left_ids, serial.left_ids), threads
        assert np.array_equal(got.right_ids, serial.right_ids), threads
        if "batch_left" in shape or representation == "int8":
            # Same blocks, same GEMM calls — or exact re-ranked scores.
            assert np.array_equal(got.scores, serial.scores), threads
        else:  # a worker's task is its own left edge: GEMM rounding
            np.testing.assert_allclose(got.scores, serial.scores, atol=1e-6)
        _assert_within_budget(got.stats, shape)
    _assert_within_budget(serial.stats, shape)


def _two_span_scan(normalized: np.ndarray):
    """A ``scan=`` drop-in that answers like a 2-shard pool: two row spans
    scanned apart, candidates folded by :func:`merge_topk`."""

    def scan(queries, *, n_rows, topk_rows, kpad, thr_rows, thr_floors):
        spans = [
            scan_candidates(
                dense_score_block(normalized, queries), lo, hi, len(queries),
                topk_rows, kpad, thr_rows, thr_floors,
            )
            for lo, hi in ((0, n_rows // 2), (n_rows // 2, n_rows))
        ]
        ids, floors = merge_topk([span.triples for span in spans], len(topk_rows), kpad)
        hits = zip(*(split_rows(span.hits[0], span.hits[1], len(thr_rows)) for span in spans))
        return SimpleNamespace(
            heap_ids=ids, heap_floor=floors, blocks=sum(span.blocks for span in spans),
            thr_hits=[np.concatenate(parts) for parts in hits],
        )

    return scan


@pytest.mark.parametrize("cut", ["one-block", "budget", "two-span"])
@pytest.mark.parametrize("size", [1, 2, 8])
def test_selections_equal_the_oracle_for_every_group(join_inputs, size, cut):
    """``eselect`` is ``select_group`` with one member, and a member's answer
    does not depend on the group: members 2i and 2i + 1 repeat one vector
    under different conditions, so scan rows need candidates and hits."""
    left, right, scores = join_inputs
    conditions = list(_join_conditions(scores).values())
    members = [(i // 2, conditions[(i + i // 2) % len(conditions)]) for i in range(size)]
    normalized = normalize_rows(right)
    unique = -(-size // 2)
    group = select_group(
        normalized,
        [normalize_vector(left[row]) for row, _ in members],
        [condition for _, condition in members],
        scan=_two_span_scan(normalized) if cut == "two-span" else None,
        budget_bytes=4 * 4 * unique if cut == "budget" else None,
    )
    assert group.unique == unique
    if cut != "two-span":  # ~four rows a block: the budget reached the scan
        assert (group.blocks > 2) == (cut == "budget")
    assert (group.fanned is not None) == (cut == "two-span")
    for i, (row, condition) in enumerate(members):
        ids, found, candidates, _ = group.select(i)
        assert candidates >= len(ids)
        got = SimpleNamespace(ids=ids, scores=found)
        _assert_selection(got, scores[row], condition, (i, row, condition))
        _assert_selection(eselect(right, left[row], condition), scores[row], condition, row)


def _clustered(n: int, seed: int) -> np.ndarray:
    """Rows tight around 40 centres: a query's neighbours crowd its k-th
    place within the int8 error bound."""
    rng = np.random.default_rng(seed)
    centres = unit_vectors(40, DIM, stream="scan-tests/centres")
    rows = centres[rng.integers(0, 40, n)] + 0.05 * rng.standard_normal((n, DIM))
    return rows.astype(np.float32)


@pytest.mark.quant
@pytest.mark.parametrize("method", ["int8"])
@pytest.mark.parametrize("table", ["clustered", "thrice"])
def test_quantized_topk_is_exact(method, table):
    """At default settings a quantized top-k join and selection are the
    float64 oracle's answer: ids, order, scores to fp32 rounding.  With
    every right row three times over, more copies tie near the k-th place
    than the error bound can separate, so rows take the fixed-floor pass."""
    queries, right = _clustered(64, 18), _clustered(N_PLAIN, 17)
    if table == "thrice":
        right = np.repeat(right[: N_PLAIN // 3], 3, axis=0)
    store = QuantizedRelation.build(right, method)
    scores = (
        normalize_rows(queries).astype(np.float64) @ normalize_rows(right).astype(np.float64).T
    )
    condition = TopKCondition(K)
    want_l, want_r = _oracle_join(scores, condition)
    got = quantized_tensor_join(queries, store, condition)
    assert np.array_equal(got.left_ids, want_l)
    assert np.array_equal(got.right_ids, want_r)
    np.testing.assert_allclose(got.scores, scores[want_l, want_r], atol=1e-6)
    if table == "thrice":
        assert got.stats.extra["rescanned_rows"] > 0
    for row in range(0, len(queries), 8):
        selected = quantized_eselect(store, queries[row], condition)
        assert np.array_equal(selected.ids, want_r[want_l == row]), row
        np.testing.assert_allclose(selected.scores, scores[row, selected.ids], atol=1e-6)


def _poisoned(rows: np.ndarray) -> np.ndarray:
    out = rows.copy()
    out[min(9, len(out) - 1), 2] = np.nan
    return out


@pytest.mark.quant
def test_every_entry_point_rejects_a_non_finite_row_or_query(join_inputs):
    """One NaN cell used to take a reducer slot (``tensor_join``: a pair
    short), poison the fitted range (int8: no rows at all) or blank a
    selection silently; every front door now raises a typed error."""
    left, right, _ = join_inputs
    condition = TopKCondition(J_K)
    bad_right, bad_left, bad_query = _poisoned(right), _poisoned(left), _poisoned(left)[9]
    inf_right = right.copy()
    inf_right[0, 0] = np.inf
    calls = {
        "tensor_join/right": lambda: tensor_join(left, bad_right, condition),
        "tensor_join/left": lambda: tensor_join(bad_left, right, condition),
        "tensor_join/inf": lambda: tensor_join(left, inf_right, condition),
        "tensor_join_fp16": lambda: tensor_join_fp16(left, bad_right, condition),
        "int8_join": lambda: quantized_tensor_join(left, bad_right, condition, method="int8"),
        "int8_join/left": lambda: quantized_tensor_join(bad_left, right, condition, method="int8"),
        "build/assume_normalized": lambda: QuantizedRelation.build(
            bad_right, "int8", assume_normalized=True
        ),
        "eselect/relation": lambda: eselect(bad_right, left[0], condition),
        "eselect/query": lambda: eselect(right, bad_query, condition),
        "quantized_eselect/relation": lambda: quantized_eselect(bad_right, left[0], condition),
        "quantized_eselect/query": lambda: quantized_eselect(right, bad_query, condition),
        "select_group/query": lambda: select_group(
            normalize_rows(right), [normalize_vector(left[0]), bad_query], [condition] * 2
        ),
    }
    for name, call in calls.items():
        with pytest.raises(JoinError, match="non-finite"):
            call()
        assert name  # the failing entry point shows in the traceback's locals
    # A zero row is not an error: it scores 0 against everything.
    zero_right = right.copy()
    zero_right[4] = 0.0
    got = eselect(zero_right, left[0], ThresholdCondition(0.0))
    assert 4 in got.ids and got.scores[got.ids.tolist().index(4)] == 0.0


@pytest.mark.service
def test_the_service_rejects_a_non_finite_query_alone(services, queries):
    """A NaN query is refused at the front door — never queued into a
    group, whose other members it would fail."""
    engine, coalesced, _ = services
    before = coalesced.stats_snapshot()["coalescer"]["coalesced_queries"]
    bad = np.full(DIM, np.nan, dtype=np.float32)
    for cond in ({"top_k": K}, {"threshold": THRESHOLD}):
        with pytest.raises(JoinError, match="non-finite"):
            coalesced.submit(_build(engine, "plain", bad, cond))
    assert coalesced.stats_snapshot()["coalescer"]["coalesced_queries"] == before
    catalog = Catalog()
    catalog.register("poisoned", _table(_poisoned(unit_vectors(40, DIM, seed=1))))
    other = Engine(catalog)
    other.models.register(MODEL, HashingEmbedder(dim=DIM))
    service = QueryService(other, coalesce=True)
    try:
        with pytest.raises(JoinError, match="non-finite"):
            service.submit(_build(other, "poisoned", queries[0], {"top_k": K}))
    finally:
        service.shutdown()


def test_a_proved_topk_scores_its_candidates_once(corpus, queries, monkeypatch):
    """The finalizer re-scores a candidate set once; only an unproved
    floor (more ties than the pad) costs the second, widened, set."""
    import repro.core.eselect as _  # noqa: F401  (``repro.core.eselect`` is the function)
    from importlib import import_module

    module = import_module("repro.core.eselect")
    calls = []

    def counted(rows, vec):
        calls.append(len(rows))
        return stable_dot_scores(rows, vec)

    monkeypatch.setattr(module, "stable_dot_scores", counted)
    eselect(corpus, queries[0], TopKCondition(K))
    assert calls == [K + TOPK_PRESCREEN_PAD]
    calls.clear()
    eselect(corpus, queries[0], ThresholdCondition(THRESHOLD))
    assert len(calls) == 1
    calls.clear()
    ties = _ties_corpus()
    got = eselect(ties, ties[3], TopKCondition(K))
    assert len(calls) == 2 and calls[1] >= 60  # widened to every tied row
    assert got.ids.tolist() == [0, 3, 8, 16, 24]
