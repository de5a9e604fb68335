"""Cap bounds (``repro.core.caps``): an fp32, int8 or PQ scan join that
scores only the right rows its cap partition cannot prove out equals the
dense join and a float64 oracle, and declines — to the dense join, bit for
bit — wherever the partition would not pay."""

from __future__ import annotations

import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import physical_planner
from repro.core import ThresholdCondition, TopKCondition, tensor_join
from repro.core import caps as caps_module
from repro.core import quantized_join
from repro.core.caps import CapPartition, build_caps, cap_join
from repro.core.quantized_join import QuantizedRelation, quantized_tensor_join
from repro.embedding import HashingEmbedder
from repro.engine import ExecutionEngine
from repro.query import Engine
from repro.relational import Catalog, DataType, Field, Schema, Table
from repro.vector.norms import normalize_rows
from repro.workloads import unit_vectors

DIM = 16
#: fp32 rounding of a dim-16 dot product: how far apart a cap's GEMM and a
#: dense block's may leave one cell, and two pairs may be to trade places.
SWAP_TOLERANCE = DIM * 2.0**-24


@pytest.fixture(autouse=True)
def small_sources(monkeypatch):
    """Partitions of a few thousand rows, so the tests stay small."""
    monkeypatch.setattr(caps_module, "MIN_CAPS", 8)


def clustered(n: int, seed: int, *, centres: int = 48, spread: float = 0.25) -> np.ndarray:
    """Unit rows around ``centres`` random directions (~0.97 to their own)."""
    rng = np.random.default_rng(seed)
    around = normalize_rows(np.random.default_rng(7).standard_normal((centres, DIM)))
    noise = rng.standard_normal((n, DIM)) * (spread / DIM**0.5)
    return normalize_rows((around[rng.integers(0, centres, n)] + noise).astype(np.float32))


def grid(n: int, seed: int, *, centres: int = 64) -> np.ndarray:
    """Sign patterns: entries +-0.25, one flipped in half the rows, around
    ``centres`` patterns.  Every dot product is a multiple of 1/16 — exact
    in any summation order, so scores tie exactly everywhere."""
    rng = np.random.default_rng(seed)
    patterns = np.random.default_rng(11).choice([-0.25, 0.25], (centres, DIM))
    out = patterns[rng.integers(0, centres, n)].astype(np.float32)
    flipped = np.flatnonzero(rng.random(n) < 0.5)
    out[flipped, rng.integers(0, DIM, len(flipped))] *= -1
    return out


def oracle(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    return left.astype(np.float64) @ right.astype(np.float64).T


def joined(left, right, condition, part, representation="fp32", **keywords):
    """The dense join and the join offered ``part``, in fp32 or on int8 / PQ
    codes of ``right``."""
    if representation == "fp32":
        join, keywords = tensor_join, dict(keywords, assume_normalized=True)
    else:
        join = quantized_tensor_join
        right = QuantizedRelation.build(
            right, representation, assume_normalized=True,
            **({"m": 4, "ks": 16, "seed": 3} if representation == "pq" else {}),
        )
    return join(left, right, condition, **keywords), join(
        left, right, condition, caps=part, **keywords
    )


def assert_same_answer(dense, capped, exact: np.ndarray) -> None:
    """Left ids equal; where right ids differ position by position, the two
    pairs' float64 scores are within fp32 rounding; scores within it too."""
    assert np.array_equal(dense.left_ids, capped.left_ids)
    moved = dense.right_ids != capped.right_ids
    rows = dense.left_ids[moved]
    apart = np.abs(exact[rows, dense.right_ids[moved]] - exact[rows, capped.right_ids[moved]])
    assert (apart <= SWAP_TOLERANCE).all()
    assert np.abs(capped.scores - exact[capped.left_ids, capped.right_ids]).max(
        initial=0.0
    ) <= SWAP_TOLERANCE


# ---------------------------------------------------------------------------
# The cap path against the dense path and the oracle
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def clustered_join():
    left, right = clustered(300, 1), clustered(4_000, 2)
    return left, right, oracle(left, right)


@pytest.fixture()
def clustered_part(clustered_join, small_sources):  # built after MIN_CAPS is lowered
    part = build_caps(clustered_join[1])
    assert part is not None
    return part


@pytest.mark.parametrize("representation", ["fp32", "int8", "pq"])
@pytest.mark.parametrize(
    "condition",
    [
        TopKCondition(5),
        TopKCondition(12, min_similarity=0.9),
        TopKCondition(3, min_similarity=1.0),  # above every score
        ThresholdCondition(0.9),
    ],
    ids=["topk", "topk-min", "min-above-all", "threshold"],
)
def test_cap_path_equals_dense_and_oracle(
    clustered_join, clustered_part, condition, representation
):
    left, right, exact = clustered_join
    dense, capped = joined(left, right, condition, clustered_part, representation)
    if getattr(condition, "min_similarity", None) == 1.0:
        assert exact.max() < 1.0 and len(dense) == len(capped) == 0
    assert capped.stats.extra["cap_tasks"] >= 1
    assert capped.stats.similarity_evaluations < 0.25 * dense.stats.similarity_evaluations
    if isinstance(condition, ThresholdCondition):
        want = np.nonzero(exact >= condition.threshold + SWAP_TOLERANCE)
        held = set(zip(capped.left_ids.tolist(), capped.right_ids.tolist()))
        assert set(zip(*(ids.tolist() for ids in want))) <= held
    assert_same_answer(dense, capped, exact)


@pytest.fixture(scope="module")
def exact_join():
    """Grid rows, every right row three times over (copies fall in
    different caps or straddle a cap's edge)."""
    left, right = grid(200, 3), grid(1_400, 4)[np.arange(4_200) // 3]
    return left, right


@pytest.mark.parametrize(
    "condition",
    [
        TopKCondition(5),
        TopKCondition(7),
        ThresholdCondition(0.875),  # attained by many pairs
    ],
    ids=["topk-tied", "topk-tied-7", "threshold-attained"],
)
def test_exact_ties_and_copies_are_bit_identical(exact_join, condition):
    left, right = exact_join
    part = build_caps(right)
    assert part is not None
    dense, capped = joined(left, right, condition, part)
    ran = capped.stats.extra["cap_tasks"]
    assert ran >= 1
    for got, want in zip(
        (capped.left_ids, capped.right_ids, capped.scores),
        (dense.left_ids, dense.right_ids, dense.scores),
    ):
        assert np.array_equal(got, want)
    if isinstance(condition, TopKCondition):
        ranked = np.sort(oracle(left, right), axis=1)
        assert (ranked[:, -condition.k] == ranked[:, -condition.k - 1]).mean() > 0.5


def test_k_at_least_n_declines_to_the_dense_join(clustered_join, clustered_part):
    left, right, _ = clustered_join
    dense, capped = joined(left, right, TopKCondition(len(right) + 3), clustered_part)
    assert capped.stats.extra["cap_tasks"] == 0
    assert np.array_equal(dense.right_ids, capped.right_ids)
    assert np.array_equal(dense.scores, capped.scores)


def test_one_row_caps(clustered_join):
    """Every row its own cap: radius 1, a bound that is the row's score
    plus the margin.  Its float64 bounds outweigh a dense block, so the
    join would decline them; the task is joined on them directly."""
    left, right, exact = clustered_join
    centres = right.astype(np.float64)
    centres /= np.linalg.norm(centres, axis=1, keepdims=True)
    part = CapPartition(
        right, np.arange(len(right)), np.arange(len(right) + 1), centres,
        np.minimum(np.einsum("ij,ij->i", right.astype(np.float64), centres), 1.0),
    )
    for condition in (TopKCondition(5), ThresholdCondition(0.9)):
        dense = tensor_join(left, right, condition, assume_normalized=True)
        scan = cap_join(part, condition, left, np.inf)
        assert scan is not None
        capped = SimpleNamespace(**dict(zip(("left_ids", "right_ids", "scores"), scan.triples)))
        assert_same_answer(dense, capped, exact)


@pytest.mark.parametrize(
    "threads, budget, on_caps",
    [(1, 2_048, False), (2, 2_048, None), (1, 1 << 20, True), (2, 1 << 20, True)],
)
def test_budgeted_engines(clustered_join, clustered_part, threads, budget, on_caps,
                          schedule_every_task):
    """A task whose bounds do not fit beside its share of the budget runs
    the dense loop; one on the caps stays inside it (tasks of a row or two,
    as the two-thread 2 KiB engine cuts, may do either)."""
    left, right, exact = clustered_join
    engine = ExecutionEngine(n_threads=threads, buffer_budget_bytes=budget)
    dense, capped = joined(left, right, TopKCondition(5), clustered_part, engine=engine)
    assert_same_answer(dense, capped, exact)
    ran = capped.stats.extra["cap_tasks"]
    if on_caps is not None:
        assert (ran > 0) is on_caps
    if on_caps is False:
        assert np.array_equal(dense.right_ids, capped.right_ids)
    if on_caps:
        assert capped.stats.extra["peak_intermediate_bytes"] <= budget


def test_explicit_batch_edges_run_the_dense_loop(clustered_join, clustered_part):
    left, right, _ = clustered_join
    dense, capped = joined(left, right, TopKCondition(5), clustered_part, batch_right=1_000)
    assert "cap_tasks" not in capped.stats.extra
    assert np.array_equal(dense.scores, capped.scores)


@pytest.mark.parametrize("every_other", [False, True], ids=["all-on-caps", "every-other"])
@pytest.mark.parametrize("method", ["int8", "pq"])
@pytest.mark.parametrize("condition", [TopKCondition(5), ThresholdCondition(0.9)], ids=["topk", "threshold"])
def test_rerank_candidates_are_the_code_scanned_tasks(
    clustered_join, clustered_part, condition, method, every_other, monkeypatch,
    schedule_every_task,
):
    """A task on the caps re-ranks nothing; ``rerank_candidates`` is what the
    tasks that scanned codes handed the re-rank, whatever share that is
    (``every_other``: the odd tasks' caps decline)."""
    left, right, _ = clustered_join
    store = QuantizedRelation.build(right, method, assume_normalized=True)
    reranked, tasks = [], []
    exact_scores = quantized_join._exact_scores
    monkeypatch.setattr(
        quantized_join, "_exact_scores",
        lambda lb, li, *rest: reranked.append(len(li)) or exact_scores(lb, li, *rest),
    )
    if every_other:
        def every_other_task(*args):
            tasks.append(len(tasks) % 2)
            return cap_join(*args) if tasks[-1] else None

        monkeypatch.setattr(quantized_join, "cap_join", every_other_task)
    extra = quantized_tensor_join(left, store, condition, caps=clustered_part).stats.extra
    assert extra["rerank_candidates"] == sum(reranked) >= 0
    if every_other:
        assert 0 < extra["cap_tasks"] == sum(tasks) < len(tasks)
        assert extra["rerank_candidates"] > 0
    else:
        assert extra["cap_tasks"] >= 1 and extra["rerank_candidates"] == 0


# ---------------------------------------------------------------------------
# Where a partition declines
# ---------------------------------------------------------------------------
def test_uniform_rows_decline():
    assert build_caps(unit_vectors(6_000, DIM, seed=5)) is None


@pytest.mark.parametrize("method", ["int8", "pq"])
def test_a_declining_source_still_scans_codes(method, monkeypatch):
    """Uniform rows' partition, built with the source check waved through:
    every task's bounds keep all its cells, so each declines and the codes
    are scanned, re-ranked and proved — bit for bit the join with no caps."""
    left, right = unit_vectors(200, DIM, seed=4), unit_vectors(6_000, DIM, seed=5)
    monkeypatch.setattr(caps_module, "DECLINE_SHARE", 1.0)
    part = build_caps(right)
    monkeypatch.setattr(caps_module, "DECLINE_SHARE", 0.25)
    assert part is not None
    dense, capped = joined(left, right, TopKCondition(5), part, method)
    extra = capped.stats.extra
    assert extra["cap_tasks"] == 0
    assert extra["rescanned_rows"] == dense.stats.extra["rescanned_rows"]
    assert extra["rerank_candidates"] == dense.stats.extra["rerank_candidates"] > 0
    for got, want in zip(
        (capped.left_ids, capped.right_ids, capped.scores),
        (dense.left_ids, dense.right_ids, dense.scores),
    ):
        assert np.array_equal(got, want)


def test_sources_below_one_cap_or_the_minimum_decline(monkeypatch):
    rows = clustered(caps_module.ROWS_PER_CAP - 1, 6)
    assert build_caps(rows) is None
    monkeypatch.setattr(caps_module, "MIN_CAPS", 64)
    assert build_caps(clustered(64 * caps_module.ROWS_PER_CAP - 1, 6)) is None


def test_the_fasttext_catalog_declines(monkeypatch):
    """``ejoin_strings``' catalog, built as that workload builds it: 8,000
    syllable words, FastText fitted on 400 sentences of them.  Its bounds
    keep (nearly) every cell."""
    from repro.embedding.fasttext import FastTextModel

    monkeypatch.setattr(caps_module, "MIN_CAPS", 64)
    rng = np.random.default_rng(11)
    syllables = [c + v for c in "bcdfghjklmnprstvz" for v in "aeiou"]
    words: set[str] = set()
    while len(words) < 8_000:
        words.add("".join(syllables[i] for i in rng.integers(len(syllables), size=rng.integers(3, 6))))
    words = sorted(words)
    sentences = [[words[i] for i in rng.integers(600, size=8)] for _ in range(400)]
    model = FastTextModel(dim=64, seed=7).fit(sentences, epochs=1)
    assert build_caps(normalize_rows(model.embed_batch(words))) is None


# ---------------------------------------------------------------------------
# A property over clustered sources
# ---------------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    centres=st.integers(min_value=8, max_value=64),
    spread=st.floats(min_value=0.05, max_value=0.6),
    k=st.integers(min_value=1, max_value=20),
    threshold=st.floats(min_value=0.5, max_value=0.99),
)
@settings(max_examples=25, deadline=None)
def test_property_clustered_sources(seed, centres, spread, k, threshold):
    left = clustered(120, seed, centres=centres, spread=spread)
    right = clustered(1_500, seed + 1, centres=centres, spread=spread)
    part = build_caps(right)  # MIN_CAPS lowered by ``small_sources``
    if part is None:
        return
    exact = oracle(left, right)
    for condition in (TopKCondition(k), ThresholdCondition(threshold)):
        dense, capped = joined(left, right, condition, part)
        if isinstance(condition, ThresholdCondition):
            # A pair whose float64 score sits within rounding of the
            # threshold may fall either side of it.
            keys = lambda r: set(zip(r.left_ids.tolist(), r.right_ids.tolist()))  # noqa: E731
            for i, j in keys(dense) ^ keys(capped):
                assert abs(exact[i, j] - threshold) <= SWAP_TOLERANCE
            continue
        assert_same_answer(dense, capped, exact)


# ---------------------------------------------------------------------------
# The planner keeps one partition per registration and model
# ---------------------------------------------------------------------------
def _vec_table(key: str, vectors: np.ndarray) -> Table:
    schema = Schema.of(Field(key, DataType.INT64), Field("vec", DataType.TENSOR, dim=DIM))
    return Table.from_arrays(schema, {key: np.arange(len(vectors)), "vec": vectors})


@pytest.fixture()
def engine():
    catalog = Catalog()
    catalog.register("r", _vec_table("rid", clustered(4_000, 2)))
    catalog.register("l", _vec_table("lid", clustered(300, 1)))
    engine = Engine(catalog)
    engine.models.register("m", HashingEmbedder(dim=DIM))
    return engine


def _join(engine: Engine, strategy: str = "tensor"):
    query = (
        engine.query("l")
        .ejoin("r", left_on="vec", right_on="vec", model="m", top_k=5, strategy=strategy)
        .select(["lid", "rid", "similarity"])
    )
    return query.execute(), query.last_report.join_stats[-1]


def _partition(engine: Engine):
    return engine._norm_cache[("r", "vec", "m", "caps")][1]


def test_the_planner_joins_on_the_partition(engine):
    out, stats = _join(engine)
    assert stats.extra["cap_tasks"] >= 1
    right = engine.catalog.get("r").array("vec")
    left = engine.catalog.get("l").array("vec")
    dense = tensor_join(left, right, TopKCondition(5))
    assert np.array_equal(out.array("lid"), dense.left_ids)
    moved = out.array("rid") != dense.right_ids
    exact = oracle(left, right)
    rows = dense.left_ids[moved]
    assert (np.abs(exact[rows, dense.right_ids[moved]] - exact[rows, out.array("rid")[moved]])
            <= SWAP_TOLERANCE).all()


@pytest.mark.parametrize("method", ["int8", "pq"])
def test_a_forced_quantized_join_runs_on_the_partition(engine, method):
    """The one partition the fp32 scan uses serves a forced int8 / PQ join
    of the same source, with the fp32 join's ids."""
    out, stats = _join(engine, f"tensor-{method}")
    assert stats.strategy == f"tensor-{method}" and stats.extra["cap_tasks"] > 0
    part = _partition(engine)
    want, _ = _join(engine, "parallel-tensor")
    assert _partition(engine) is part
    for column in ("lid", "rid"):
        assert np.array_equal(out.array(column), want.array(column))


def test_rebuilt_after_reregistration_and_model_replacement(engine):
    _join(engine)
    first = _partition(engine)
    _join(engine)
    assert _partition(engine) is first  # one build per registration
    moved = clustered(4_000, 9)
    engine.catalog.register("r", _vec_table("rid", moved), replace=True)
    out, stats = _join(engine)
    second = _partition(engine)
    assert second is not first and stats.extra["cap_tasks"] >= 1
    assert np.array_equal(np.sort(second.ids), np.arange(4_000))
    dense = tensor_join(engine.catalog.get("l").array("vec"), moved, TopKCondition(5))
    assert np.array_equal(np.sort(out.array("rid")), np.sort(dense.right_ids))
    engine.models.register("m", HashingEmbedder(dim=DIM), replace=True)
    _join(engine)
    assert _partition(engine) is not second


def test_sessions_racing_a_cold_source_build_once(engine, monkeypatch):
    """Contexts minted by one engine share its per-source build locks: more
    sessions than cores, switching often, build the partition once."""
    calls = []

    def slow_build(rows):
        calls.append(1)
        time.sleep(0.05)
        return build_caps(rows)

    monkeypatch.setattr(physical_planner, "build_caps", slow_build)
    table = engine.catalog.get("r")
    got = []
    threads = [
        threading.Thread(
            target=lambda ctx=engine.context(): got.append(
                ctx.cap_partition_for(("r", "vec", "m"), table)
            )
        )
        for _ in range(6)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(calls) == 1 and len(got) == 6
    assert all(part is got[0] for part in got) and got[0] is not None
