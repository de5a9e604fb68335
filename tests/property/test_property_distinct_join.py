"""Distinct-key E-join: ``R |><|_E S == R |><|_code (delta_code(R) |><|_E S)``.

The planner joins one vector per *distinct* left string and expands the
pairs back to rows.  The property: whatever the multiset of strings, the
access path and the morsel / block cut, the planner's result has the ids
— and the row order — of the same operator run over one vector per *row*.
Across queries the identity holds per registration of the right side: a
top-k join gathers the keys it has joined before, and a sequence of joins
answers, op by op, what a fresh context answers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.logical import EJoinNode, ScanNode
from repro.algebra.physical_planner import ExecutionReport, execute
from repro.core import ThresholdCondition, TopKCondition, ejoin, tensor_join
from repro.embedding import HashingEmbedder
from repro.engine import ExecutionEngine
from repro.index import IVFFlatIndex
from repro.query import Engine
from repro.relational import Catalog, DataType, Field, Schema, Table
from repro.vector import select

DIM = 16
MODEL = "m"
_RNG = np.random.default_rng(1234)
_LETTERS = list("abcdefghijklmnop")


def _words(n: int) -> list[str]:
    out: set[str] = set()
    while len(out) < n:
        out.add("".join(_RNG.choice(_LETTERS, size=int(_RNG.integers(4, 9)))))
    return sorted(out)


RIGHT = _words(64)
#: A small pool, so drawn feeds are full of duplicates; some are catalog
#: words (exact matches), some near misses.
POOL = RIGHT[:6] + [w[:-1] for w in RIGHT[6:12]] + _words(6)
THRESHOLD = 0.55  # few enough matches that the index's probe depth holds them

STRATEGIES = [
    "tensor",
    "parallel-tensor",
    pytest.param("tensor-int8", marks=pytest.mark.quant),
    "index",
]
CONDITIONS = [TopKCondition(1), TopKCondition(3), ThresholdCondition(THRESHOLD)]

feeds = st.one_of(
    st.lists(st.sampled_from(POOL), min_size=0, max_size=40),
    st.integers(1, 30).map(lambda n: [POOL[0]] * n),  # all equal
    st.permutations(POOL),  # all distinct
)


@pytest.fixture(scope="module", autouse=True)
def schedule_every_task():
    """These joins are far under the engine's task-work floor; lift it so
    morsels exist and duplicates can straddle them."""
    floors = select.MIN_TASK_WORK, select.MIN_TASK_ROWS
    select.MIN_TASK_WORK = select.MIN_TASK_ROWS = 1
    yield
    select.MIN_TASK_WORK, select.MIN_TASK_ROWS = floors


def _model() -> HashingEmbedder:
    return HashingEmbedder(dim=DIM, seed=5)


def _small_cut_executor() -> ExecutionEngine:
    """Two workers, 3-row morsels, a budget that cuts both block edges."""
    return ExecutionEngine(n_threads=2, morsel_rows=3, buffer_budget_bytes=2048)


def _feed(texts: list[str]) -> Table:
    return Table.from_arrays(
        Schema.of(Field("lid", DataType.INT64), Field("text", DataType.STRING)),
        {"lid": np.arange(len(texts)), "text": np.asarray(texts, dtype=object)},
    )


def _engine(texts: list[str], *, index: bool, right: list[str] = RIGHT) -> Engine:
    catalog = Catalog()
    catalog.register("feed", _feed(texts))
    catalog.register(
        "words",
        Table.from_arrays(
            Schema.of(Field("wid", DataType.INT64), Field("word", DataType.STRING)),
            {"wid": np.arange(len(right)), "word": right},
        ),
    )
    engine = Engine(catalog)
    engine.models.register(MODEL, _model())
    engine.executor = _small_cut_executor()
    if index:
        engine.register_index("words", "word", _index())
    return engine


def _index() -> IVFFlatIndex:
    ivf = IVFFlatIndex(DIM, nlist=4, nprobe=4, seed=3)  # every list probed
    ivf.add(_model().embed_batch(RIGHT))
    return ivf


def _join(engine: Engine, condition, strategy):
    """Run the physical plan as written: the optimizer may flip a threshold
    join's inputs by cardinality, and the property is about the left side."""
    plan = EJoinNode(
        ScanNode("feed"), ScanNode("words"), "text", "word", MODEL, condition,
        prefetch=True, strategy_hint=strategy,
    )
    report = ExecutionReport()
    out = execute(plan, engine.context(), report=report)
    return out, report.join_stats[-1]


def _planned(texts, condition, strategy):
    engine = _engine(texts, index=strategy == "index")
    return *_join(engine, condition, strategy), engine


def _per_row(texts, condition, strategy):
    """The same operator over one vector per row: no codes, no expansion."""
    model = _model()
    left = model.embed_batch(texts)
    if strategy == "index":
        return ejoin(left, None, condition, strategy="index", index=_index(),
                     engine=_small_cut_executor())
    return ejoin(left, model.embed_batch(RIGHT), condition, strategy=strategy,
                 engine=_small_cut_executor())


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("condition", CONDITIONS, ids=str)
@given(texts=feeds)
@settings(max_examples=25, deadline=None)
def test_planner_equals_join_over_per_row_vectors(texts, condition, strategy):
    out, stats, _ = _planned(texts, condition, strategy)
    want = _per_row(texts, condition, strategy)
    assert out.array("lid").tolist() == want.left_ids.tolist()
    assert out.array("wid").tolist() == want.right_ids.tolist()
    # A distinct row's scores differ from its per-row twins' only by where
    # the row sits in a GEMM block (the repo-wide contract is 1e-6; under
    # these deliberately tiny blocks the worst seen is 2 ulp).
    np.testing.assert_array_max_ulp(out.array("similarity"), want.scores, maxulp=4)
    assert stats.n_left == len(set(texts))

    # ... and every access path agrees with the exact scan on the ids.
    plain = tensor_join(
        _model().embed_batch(texts), _model().embed_batch(RIGHT), condition
    )
    exact = plain.sorted()
    got = np.lexsort((out.array("wid"), out.array("lid")))
    assert out.array("lid")[got].tolist() == exact.left_ids.tolist()
    assert out.array("wid")[got].tolist() == exact.right_ids.tolist()
    if not (strategy == "index" and isinstance(condition, ThresholdCondition)):
        # Same order too, wherever the operators share one: an index probe
        # returns a range query's matches best first, a scan by right id.
        assert out.array("wid").tolist() == plain.right_ids.tolist()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_empty_left_side(strategy):
    out, stats, _ = _planned([], TopKCondition(1), strategy)
    assert out.num_rows == 0 and stats.n_left == 0
    assert "similarity" in out.schema.names


@pytest.mark.parametrize("strategy", ["tensor", "parallel-tensor", "index"])
def test_work_is_counted_per_distinct_string(strategy):
    """A feed with exactly half duplicates: similarity evaluations and model
    calls are those of its distinct strings — counts, no wall clock."""
    distinct = POOL[:10]
    texts = distinct + distinct[::-1]
    out, stats, engine = _planned(texts, TopKCondition(1), strategy)
    model = engine.models.get(MODEL)
    assert out.num_rows == len(texts)
    assert stats.n_left == len(distinct) and stats.pairs_emitted == len(texts)
    if strategy != "index":  # an index probe visits lists, not the relation
        assert stats.similarity_evaluations == len(distinct) * len(RIGHT)
        assert model.usage.calls == len(set(distinct) | set(RIGHT))
    else:
        assert model.usage.calls == len(distinct)  # the index holds the words

    # The same feed again: every string is known, the model is not called.
    calls = model.usage.calls
    engine.catalog.register("feed", engine.catalog.get("feed"), replace=True)
    again, _ = _join(engine, TopKCondition(1), strategy)
    assert model.usage.calls == calls
    assert again.array("wid").tolist() == out.array("wid").tolist()
    # One new string among old ones costs one call.
    engine.catalog.register(
        "feed",
        Table.from_arrays(
            engine.catalog.get("feed").schema,
            {"lid": np.arange(3), "text": [texts[0], "brandnew", texts[0]]},
        ),
        replace=True,
    )
    _join(engine, TopKCondition(1), strategy)
    assert model.usage.calls == calls + 1


def test_expand_left_keeps_each_keys_own_order():
    """``JoinResult.expand_left`` on a hand-made result: rows ascending,
    every row carrying its key's pairs in the key's order, keys without a
    pair yielding no row."""
    from repro.core.result import JoinResult

    joined = JoinResult(
        left_ids=[0, 0, 2, 2, 2],  # key 1 matched nothing
        right_ids=[7, 3, 5, 9, 1],
        scores=[0.9, 0.8, 0.7, 0.6, 0.5],
    )
    inverse = np.array([2, 0, 1, 2, 0])
    out = joined.expand_left(inverse)
    assert out.left_ids.tolist() == [0, 0, 0, 1, 1, 3, 3, 3, 4, 4]
    assert out.right_ids.tolist() == [5, 9, 1, 7, 3, 5, 9, 1, 7, 3]
    assert np.allclose(out.scores, [0.7, 0.6, 0.5, 0.9, 0.8, 0.7, 0.6, 0.5, 0.9, 0.8])


#: ``(right words, condition)`` of the join sequences below.  Duplicate
#: catalog rows tie exactly; the three-row catalog holds fewer rows than k.
SEQUENCE_CASES = [
    (RIGHT + RIGHT[:8], TopKCondition(1)),
    (RIGHT + RIGHT[:8], TopKCondition(3)),
    (RIGHT + RIGHT[:8], TopKCondition(3, min_similarity=0.5)),
    (RIGHT[:2] + RIGHT[:1], TopKCondition(4)),
]
#: An empty feed, a feed with one distinct key, and overlapping feeds.
FIXED_SEQUENCE = [[], [POOL[0]] * 5, POOL[:9], POOL[::-1] + [POOL[3]], [], POOL[4:7] * 3]


def _case_id(value) -> str:
    return f"{len(value)}-rows" if isinstance(value, list) else str(value)


def _check_sequence(batches, right, condition, strategy) -> int:
    """Run ``batches`` one after another against one registration of
    ``right`` and each against a fresh context; returns the keys the
    sequence found already joined."""
    engine = _engine([], index=False, right=right)
    hits = 0
    for op, texts in enumerate(batches):
        engine.catalog.register("feed", _feed(texts), replace=True)
        got, stats = _join(engine, condition, strategy)
        want, cold = _join(_engine(texts, index=False, right=right), condition, strategy)
        assert got.array("lid").tolist() == want.array("lid").tolist(), op
        # By word: which of two duplicate rows wins an exact tie depends on
        # the GEMM shape a key is scored in, at a fresh context too.
        assert got.array("word").tolist() == want.array("word").tolist(), op
        # A key's scores come from the GEMM block it was first joined in
        # (the repo-wide contract: block rounding, <= 1e-6).
        np.testing.assert_allclose(
            got.array("similarity"), want.array("similarity"), rtol=0, atol=1e-6
        )
        assert stats.n_left == cold.n_left == len(set(texts))
        assert stats.extra["memo_misses"] + stats.extra["memo_hits"] == stats.n_left
        assert stats.similarity_evaluations == stats.extra["memo_misses"] * len(right)
        hits += stats.extra["memo_hits"]
    return hits


@pytest.mark.parametrize("strategy", ["tensor", "parallel-tensor"])
@pytest.mark.parametrize("right,condition", SEQUENCE_CASES, ids=_case_id)
@given(batches=st.lists(feeds, min_size=1, max_size=5))
@settings(max_examples=15, deadline=None)
def test_join_sequence_answers_like_a_fresh_context(batches, right, condition, strategy):
    _check_sequence(batches, right, condition, strategy)


@pytest.mark.parametrize("right,condition", SEQUENCE_CASES, ids=_case_id)
def test_fixed_join_sequence_gathers_what_it_joined(right, condition):
    assert _check_sequence(FIXED_SEQUENCE, right, condition, "tensor") > 0
