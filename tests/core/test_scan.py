"""Differential test of the shared-scan core and the three paths over it.

Part A drives :func:`repro.core.scan.scan_candidates` directly with each
``score_block`` representation and checks its one promise against a
float64 oracle: candidates are a superset of the true answer.  Part B
checks the consequence end to end: a serial ``eselect``, a coalesced group
and a 2-shard group return ``np.array_equal`` tables for every group size.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import PRESCREEN_MARGIN, TOPK_PRESCREEN_PAD
from repro.core.scan import (
    dense_score_block,
    merge_topk,
    row_major_scores,
    scan_candidates,
)
from repro.embedding import HashingEmbedder
from repro.query import Engine
from repro.relational import Catalog, DataType, Field, Table
from repro.relational.column import Column
from repro.service import QueryService
from repro.vector import Int8Quantizer, ProductQuantizer, stable_dot_scores
from repro.vector.norms import normalize_vector
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
def _representation(name: str, corpus: np.ndarray, q: np.ndarray):
    """``(score_block, bound)``: the callable the core scans and the
    representation's provable score error (what the pool widens by)."""
    if name == "fp32":
        return (dense_score_block(corpus, q)), 0.0
    if name == "fp16":
        half = corpus.astype(np.float16)
        resid = np.linalg.norm(corpus - half.astype(np.float32), axis=1).max()
        return (
            lambda a, b: row_major_scores(half[a:b].astype(np.float32), q)
        ), float(resid) + 1e-5
    if name == "int8":
        quantizer = Int8Quantizer(DIM).fit(corpus)
        codes = quantizer.encode(corpus)
        prepared = quantizer.prepare_queries(q)
        return (
            lambda a, b: quantizer.scores_block(prepared, codes[a:b])
        ), float(quantizer.score_error_bound())
    quantizer = ProductQuantizer(DIM, m=4, ks=16, seed=5).fit(corpus)
    codes = quantizer.encode(corpus)
    return (
        lambda a, b: quantizer.adc_scores(q, codes[a:b])
    ), float(quantizer.score_error_bound())


@pytest.mark.parametrize("representation", ["fp32", "fp16", "int8", "pq"])
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
    score_block, bound = _representation(representation, corpus, q)
    # Even rows want top-k, odd rows a threshold, row 0 both (a duplicate
    # vector whose members carry different conditions).
    topk_rows = sorted({0, *range(0, n_queries, 2)})
    thr_rows = sorted({0, *range(1, n_queries, 2)})
    kpad = K + TOPK_PRESCREEN_PAD
    floors = np.full(len(thr_rows), THRESHOLD - PRESCREEN_MARGIN - bound, np.float32)
    triples, thr_hits, blocks = scan_candidates(
        score_block, lo, hi, n_queries, topk_rows, kpad, thr_rows, floors,
        budget_bytes=None if block_rows is None else 4 * n_queries * block_rows,
    )
    width = hi - lo if block_rows is None else block_rows
    assert blocks == -(-(hi - lo) // width)
    cand_ids, cand_floor = merge_topk([triples], len(topk_rows), kpad)

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
    if representation == "fp32":
        assert proved == len(topk_rows)  # no error bound: never needs the rescan
    for j, row in enumerate(thr_rows):
        hits = thr_hits[j]
        assert np.all(np.diff(hits) > 0), "threshold hits must ascend, no repeats"
        assert not len(hits) or (hits[0] >= lo and hits[-1] < hi)
        answer = np.flatnonzero(oracle[row] >= THRESHOLD) + lo
        assert set(answer.tolist()) <= set(hits.tolist())


def test_k_at_least_n_keeps_every_row(corpus, queries):
    n = 50
    triples, _, _ = scan_candidates(
        dense_score_block(corpus, queries[:3]),
        0, n, 3, (0, 1, 2), n + 7, (), (),
    )
    ids, floors = merge_topk([triples], 3, n + 7)
    assert all(sorted(row.tolist()) == list(range(n)) for row in ids)
    assert np.all(np.isneginf(floors))  # nothing dropped, nothing to guard


def test_empty_range_scans_nothing(corpus, queries):
    triples, thr_hits, blocks = scan_candidates(
        dense_score_block(corpus, queries[:2]),
        10, 10, 2, (0,), 3, (1,), (0.1,),
    )
    assert blocks == 0 and all(len(part) == 0 for part in triples)
    assert [len(hits) for hits in thr_hits] == [0]


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
    ctx = engine.context(tag="scan-tests")
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
