"""Unit tests for the E-selection operator."""

import numpy as np
import pytest

from repro.core import ThresholdCondition, TopKCondition, eselect
from repro.errors import DimensionalityError, JoinError
from repro.vector import normalize_rows


@pytest.fixture()
def relation(small_vectors):
    left, _ = small_vectors
    return left


@pytest.fixture()
def query(small_vectors):
    _, right = small_vectors
    return right[0]


class TestScanSelection:
    def test_threshold_matches_bruteforce(self, relation, query):
        result = eselect(relation, query, ThresholdCondition(0.3))
        scores = normalize_rows(relation) @ query
        expected = set(np.nonzero(scores >= 0.3)[0].tolist())
        assert set(result.ids.tolist()) == expected

    def test_topk(self, relation, query):
        result = eselect(relation, query, TopKCondition(5))
        scores = normalize_rows(relation) @ query
        expected = np.argsort(-scores, kind="stable")[:5]
        assert result.ids.tolist() == expected.tolist()

    def test_topk_min_similarity(self, relation, query):
        result = eselect(
            relation, query, TopKCondition(10, min_similarity=0.5)
        )
        assert (result.scores >= 0.5).all()

    def test_raw_items_with_model(self, hash_model):
        items = ["barbecue", "barbeque", "piano"]
        result = eselect(items, "barbecue", TopKCondition(2), model=hash_model)
        assert result.ids[0] == 0  # exact match first
        assert result.ids[1] == 1  # misspelling second
        # |R| + 1 model calls: linear cost (E-Selection Cost).
        assert hash_model.usage.calls == len(items) + 1

    def test_query_dim_mismatch(self, relation):
        with pytest.raises(DimensionalityError):
            eselect(relation, np.ones(3, dtype=np.float32), TopKCondition(1))

    def test_query_must_be_1d(self, relation):
        with pytest.raises(DimensionalityError):
            eselect(relation, np.ones((2, 8)), TopKCondition(1))

    def test_raw_query_needs_model(self, relation):
        with pytest.raises(JoinError, match="model"):
            eselect(relation, "word", TopKCondition(1))

    def test_stats(self, relation, query):
        result = eselect(relation, query, ThresholdCondition(0.3))
        assert result.stats.strategy == "eselect/scan"
        assert result.stats.similarity_evaluations == len(relation)
        assert result.stats.pairs_emitted == len(result)



# ---------------------------------------------------------------------------
# The one-row proof's order: (score desc, id asc), ties and signed zeros
# ---------------------------------------------------------------------------

TIE_DIM = 8


def _tie_relation() -> np.ndarray:
    """Unit rows against the query ``e0``: three copies of one vector (tie
    ``A``), twelve rows scoring exactly zero — half of them with every
    product ``-0.0`` — and 49 rows scoring under -0.1: enough that a top-k
    keeps ``k + TOPK_PRESCREEN_PAD`` candidates of 64 and proves a real
    floor."""
    rows = np.zeros((64, TIE_DIM), dtype=np.float32)
    rows[[0, 9, 20]] = normalize_rows(np.array([[0.9, 0.4] + [0.0] * 6], np.float32))
    zeros = [3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15]
    for i, row in enumerate(zeros):
        if i % 2:  # -0.0 in the query's coordinate, and every product -0.0
            rows[row] = -0.0
            rows[row, 1] = -1.0
        else:
            rows[row, 1 + i % (TIE_DIM - 1)] = 1.0
    rest = np.setdiff1d(np.arange(64), [0, 9, 20, *zeros])
    below = np.random.default_rng(48).standard_normal((len(rest), TIE_DIM)).astype(np.float32)
    below[:, 0] = -np.abs(below[:, 0]) - 1.0
    rows[rest] = normalize_rows(below)
    return rows


def _reference(unit: np.ndarray, query: np.ndarray, condition: TopKCondition):
    """The order by definition: one lexsort of every row's exact score."""
    from repro.vector.kernels import stable_dot_scores

    scores = stable_dot_scores(unit, query)
    ids = np.arange(len(unit), dtype=np.int64)
    order = np.lexsort((ids, -scores))[: condition.k]
    ids, scores = ids[order], scores[order]
    if condition.min_similarity is not None:
        keep = scores >= condition.min_similarity
        ids, scores = ids[keep], scores[keep]
    return ids, scores


def _assert_bits(got, want, context: str) -> None:
    """Ids equal, and scores equal bit for bit (``-0.0`` is not ``+0.0``)."""
    got_ids, got_scores = got
    want_ids, want_scores = want
    assert np.array_equal(got_ids, want_ids), (context, got_ids, want_ids)
    assert np.array_equal(
        np.asarray(got_scores, np.float32).view(np.uint32), want_scores.view(np.uint32)
    ), (context, got_scores, want_scores)


def _tie_conditions(unit: np.ndarray, query: np.ndarray):
    from repro.vector.kernels import stable_dot_scores

    tie_a = float(stable_dot_scores(unit[:1], query)[0])
    return [
        TopKCondition(5),  # the k-th place inside the zero tie
        TopKCondition(2),  # the k-th place inside tie A
        TopKCondition(8, min_similarity=0.0),  # the cut at the zero tie's score
        TopKCondition(8, min_similarity=tie_a),  # the cut at tie A's score
    ]


@pytest.mark.service
@pytest.mark.parametrize("floor", ["proved", "failed"])
def test_one_row_proof_orders_ties_by_id(floor, monkeypatch, hold_scan_slots):
    """``exact_select``'s top-k is ``np.lexsort((ids, -scores))`` of the
    exact scores, bit for bit: ties across the k-th place go to the smaller
    id and ``min_similarity`` cuts at a tie's score.  ``eselect``, a
    coalesced group of two and a planner ``esimilar`` answer the same
    ``(ids, scores)`` — on a proved floor and on a failed one, whose rescan
    widens the candidates."""
    from importlib import import_module

    from repro.core.eselect import exact_select
    from repro.embedding import HashingEmbedder
    from repro.query import Engine
    from repro.relational import Catalog, DataType, Field, Schema, Table
    from repro.service import QueryService
    from repro.vector.kernels import stable_dot_scores

    unit = _tie_relation()
    query = np.zeros(TIE_DIM, dtype=np.float32)
    query[0] = 1.0
    exact = stable_dot_scores(unit, query)
    # The exact kernel's sum starts from +0.0, so even the rows whose every
    # product is -0.0 tie at +0.0 (the signed zeros meet in the fold test).
    assert (exact == 0).sum() == 12 and not np.signbit(exact[exact == 0]).any()
    conditions = _tie_conditions(unit, query)
    rescans = []
    module = import_module("repro.core.eselect")  # ``repro.core.eselect`` is the function
    if floor == "failed":  # the floor proves nothing: every top-k rescans

        def unproved(normalized, candidates, qvec, condition, _=-np.inf):
            out = exact_select(normalized, candidates, qvec, condition, np.inf)
            rescans.append(out[2])
            return out

        monkeypatch.setattr(module, "exact_select", unproved)

    # The finalizer alone: every row scoring over -0.1, the rest dropped.
    kept = np.flatnonzero(exact > -0.1)
    dropped = float(exact[exact <= -0.1].max())
    for condition in conditions:
        want = _reference(unit, query, condition)
        ids, scores, rescanned = exact_select(
            unit, kept, query, condition, np.inf if floor == "failed" else dropped
        )
        assert rescanned == (floor == "failed"), condition
        _assert_bits((ids, scores), want, f"exact_select {condition}")

    schema = Schema((Field("id", DataType.INT64), Field("emb", DataType.TENSOR, dim=TIE_DIM)))
    catalog = Catalog()
    catalog.register("ties", Table.from_arrays(schema, {"id": np.arange(64), "emb": unit}))
    engine = Engine(catalog)
    engine.models.register("m", HashingEmbedder(dim=TIE_DIM))
    other = normalize_rows(np.ones((1, TIE_DIM), np.float32))[0]

    def selection(vector, condition):
        return engine.query("ties").esimilar(
            "emb", vector, model="m", top_k=condition.k,
            min_similarity=condition.min_similarity,
        )

    def blocker(i):
        vector = np.random.default_rng(4_800 + i).standard_normal(TIE_DIM)
        return selection(vector.astype(np.float32), TopKCondition(1))

    for condition in conditions:
        want = _reference(unit, query, condition)
        served = eselect(unit, query, condition, assume_normalized=True)
        _assert_bits((served.ids, served.scores), want, f"eselect {condition}")
        service = QueryService(engine, result_cache_size=0)
        held = hold_scan_slots(service, blocker)
        table, _ = held.run_queued([
            lambda: service.submit(selection(query, condition)),
            lambda: service.submit(selection(other, TopKCondition(3))),
        ])
        assert service.stats_snapshot()["coalescer"]["max_batch"] == 2
        service.shutdown()
        _assert_bits(
            (table.array("id"), table.array("similarity")), want, f"group {condition}"
        )
        planned = selection(query, condition).execute()
        _assert_bits(
            (planned.array("id"), planned.array("similarity")), want, f"planner {condition}"
        )
    if floor == "failed":
        assert rescans and all(rescans)


@pytest.mark.parametrize("n_rows", [1, 3])
def test_the_one_batch_fold_ties_signed_zeros_by_id(n_rows):
    """Approximate scores carry signed zeros (a GEMM's ``-0.0``): the
    one-batch fold — what ``prove_topk`` runs on a row's candidates — puts
    ``-0.0`` and ``+0.0`` in one tie broken by id, as ``np.lexsort((ids,
    -scores))`` does, equal bit for bit to the reducer's multi-part fold."""
    from repro.core.scan import fold_topk, prove_topk

    rng = np.random.default_rng(4_801)
    per_row = np.array([0.5, 0.5, 0.0, -0.0, 0.0, -0.0, -0.0, 0.0, -0.25, 0.5], np.float32)
    rows = np.repeat(np.arange(n_rows), len(per_row))
    ids = np.concatenate([rng.permutation(100)[: len(per_row)] for _ in range(n_rows)])
    scores = np.tile(per_row, n_rows)
    shuffle = rng.permutation(len(rows))
    rows, ids, scores = rows[shuffle], ids[shuffle], scores[shuffle]
    score_of = dict(zip(zip(rows.tolist(), ids.tolist()), scores))

    def rescore(r, i):  # the candidates' own scores, signed zeros kept
        return np.array([score_of[cell] for cell in zip(r.tolist(), i.tolist())], np.float32)

    def no_rescan(_):
        raise AssertionError("a row that dropped no cell rescanned")

    for k in (1, 2, 3, 5, 7, 10):
        want = []
        for row in range(n_rows):
            mine = rows == row
            order = np.lexsort((ids[mine], -scores[mine]))[:k]
            want.append((np.full(len(order), row), ids[mine][order], scores[mine][order]))
        want = tuple(np.concatenate(column) for column in zip(*want))
        one = fold_topk([(rows, ids, scores)], n_rows, k)
        halves = [(rows[:4], ids[:4], scores[:4]), (rows[4:], ids[4:], scores[4:])]
        parts = fold_topk(halves, n_rows, k)
        for got in (one, parts):
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), k
            assert np.array_equal(got[2].view(np.uint32), want[2].view(np.uint32)), k
        (_, proved_ids, proved), failed, _ = prove_topk(
            rows, ids, np.full(n_rows, -np.inf, np.float32), k, 100, rescore, no_rescan
        )
        assert not len(failed)
        assert np.array_equal(proved_ids, want[1])
        assert np.array_equal(proved.view(np.uint32), want[2].view(np.uint32))
