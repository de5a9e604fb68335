"""Scan-source state (unit rows, quantized stores, the top-k memo) follows
the catalog and the model registry: valid for one registration of its
table — the ``Table`` object the query executed — under one model object,
never for a look-alike."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.config import get_config
from repro.query import Engine
from repro.relational import Catalog, Col, DataType, Field, Schema, Table
from repro.embedding import HashingEmbedder
from repro.index import FlatIndex
from repro.workloads import unit_vectors

N, DIM = 8_000, 16
#: A row the old 64-row strided checksum (rows 0, 125, 250, ...) never read.
UNSAMPLED_ROW = 1


def _table(id_name: str, vectors: np.ndarray) -> Table:
    schema = Schema.of(
        Field(id_name, DataType.INT64), Field("emb", DataType.TENSOR, dim=DIM)
    )
    return Table.from_arrays(
        schema, {id_name: np.arange(len(vectors)), "emb": vectors}
    )


@pytest.fixture()
def setup():
    base = unit_vectors(N, DIM, seed=31)
    probe = unit_vectors(1, DIM, seed=32)
    catalog = Catalog()
    catalog.register("r", _table("rid", base))
    catalog.register("l", _table("lid", probe))
    engine = Engine(catalog)
    engine.models.register("m", HashingEmbedder(dim=DIM))
    return engine, base, probe


def _best(engine: Engine, strategy: str | None) -> int:
    out = (
        engine.query("l")
        .ejoin("r", left_on="emb", right_on="emb", model="m", top_k=1,
               strategy=strategy)
        .execute()
    )
    return int(out.array("rid")[0])


@pytest.mark.parametrize(
    "strategy",
    [None, "tensor", pytest.param("tensor-int8", marks=pytest.mark.quant)],
)
def test_reregistered_table_is_rescanned(setup, strategy):
    """Replace one row no sample would have looked at by the probe itself:
    after re-registration that row must win the top-1 join."""
    engine, base, probe = setup
    assert _best(engine, strategy) != UNSAMPLED_ROW
    changed = base.copy()
    changed[UNSAMPLED_ROW] = probe[0]
    engine.catalog.register("r", _table("rid", changed), replace=True)
    assert _best(engine, strategy) == UNSAMPLED_ROW


@pytest.mark.parametrize(
    "strategy",
    [None, "tensor", pytest.param("tensor-int8", marks=pytest.mark.quant)],
)
def test_buffer_mutated_in_place_then_reregistered_is_rescanned(setup, strategy):
    """A new table over the *same* ndarray (``from_arrays`` does not copy a
    contiguous float32 column), mutated in place: array identity says
    nothing changed, the registration says otherwise."""
    engine, base, probe = setup
    assert engine.catalog.get("r").array("emb") is base  # no copy was made
    assert _best(engine, strategy) != UNSAMPLED_ROW
    base[UNSAMPLED_ROW] = probe[0]
    engine.catalog.register("r", _table("rid", base), replace=True)
    assert _best(engine, strategy) == UNSAMPLED_ROW


def test_state_is_keyed_on_the_registered_table(setup):
    engine, base, _ = setup
    ctx = engine.context()
    key = ("r", "emb", "m")
    table = engine.catalog.get("r")
    matrix = ctx.normalized_matrix_for(key, table)
    assert ctx.norm_cache[key][0] is table
    assert ctx.normalized_matrix_for(key, table) is matrix  # a hit: no work
    engine.catalog.register("r", _table("rid", base.copy()), replace=True)
    fresh = engine.catalog.get("r")
    rebuilt = ctx.normalized_matrix_for(key, fresh)
    assert rebuilt is not matrix
    assert ctx.norm_cache[key][0] is fresh
    assert list(ctx.norm_cache) == [key]  # one entry per source, replaced


def test_state_comes_from_the_table_the_caller_holds(setup):
    """A registration that lands between a query's fetch of the table and
    its state lookup must not pair the new matrix with the old rows."""
    engine, base, _ = setup
    ctx = engine.context()
    key = ("r", "emb", "m")
    held = engine.catalog.get("r")
    bigger = unit_vectors(N + 500, DIM, seed=33)
    engine.catalog.register("r", _table("rid", bigger), replace=True)
    matrix = ctx.normalized_matrix_for(key, held)
    assert len(matrix) == held.num_rows == N
    assert len(ctx.quant_store_for(key, held, "int8")) == N
    current = engine.catalog.get("r")
    assert len(ctx.normalized_matrix_for(key, current)) == N + 500


def test_reregistering_the_same_table_keeps_the_state(setup):
    """Registering the very same table object again (a refresh that changed
    nothing) bumps the version but must not re-normalize or re-encode."""
    engine, _, _ = setup
    ctx = engine.context()
    key = ("r", "emb", "m")
    table = engine.catalog.get("r")
    matrix = ctx.normalized_matrix_for(key, table)
    store = ctx.quant_store_for(key, table, "int8")
    version = engine.catalog.version("r")
    engine.catalog.register("r", table, replace=True)
    assert engine.catalog.version("r") == version + 1
    assert ctx.normalized_matrix_for(key, engine.catalog.get("r")) is matrix
    assert ctx.quant_store_for(key, engine.catalog.get("r"), "int8") is store


def test_string_scan_source_hit_does_no_per_row_work():
    """A plain scan of a string column keeps its unit matrix: the second
    query neither calls the model nor looks a single word up."""
    words = [f"word-{i}" for i in range(200)]
    catalog = Catalog()
    catalog.register(
        "w",
        Table.from_arrays(
            Schema.of(Field("word", DataType.STRING), Field("wid", DataType.INT64)),
            {"word": words, "wid": np.arange(len(words))},
        ),
    )
    catalog.register(
        "f",
        Table.from_arrays(Schema.of(Field("text", DataType.STRING)), {"text": ["word-7"]}),
    )
    engine = Engine(catalog)
    model = HashingEmbedder(dim=DIM)
    engine.models.register("m", model)
    query = engine.query("f").ejoin(
        "w", left_on="text", right_on="word", model="m", top_k=1
    )
    first = query.execute()
    store = engine.embed_store_for("m")
    lookups = []
    add_items = store.add_items
    store.add_items = lambda items: lookups.append(len(items)) or add_items(items)
    calls = model.usage.calls
    second = query.execute()
    assert lookups == [1]  # the one feed row; not the 200 catalog words
    assert model.usage.calls == calls
    assert second.array("wid").tolist() == first.array("wid").tolist() == [7]


# ---------------------------------------------------------------------------
# The top-k memo: every code's pairs, per registration and model
# ---------------------------------------------------------------------------
WORDS = [f"word-{i}" for i in range(600)]
FEED = ["word-7", "wrod-7", "word-70", "word-7", "word-123x", "word-70"]
NEW = ["brand-new", "word-7", "other-new"]


def _words_table(words=WORDS) -> Table:
    return Table.from_arrays(
        Schema.of(Field("word", DataType.STRING), Field("wid", DataType.INT64)),
        {"word": words, "wid": np.arange(len(words))},
    )


def _feed_table(texts) -> Table:
    return Table.from_arrays(
        Schema.of(
            Field("text", DataType.STRING), Field("emb", DataType.TENSOR, dim=DIM)
        ),
        {"text": texts, "emb": unit_vectors(len(texts), DIM, seed=len(texts))},
    )


def _words_engine(model=None, feed=FEED) -> Engine:
    catalog = Catalog()
    catalog.register("w", _words_table())
    catalog.register("f", _feed_table(feed))
    engine = Engine(catalog)
    engine.models.register("m", model or HashingEmbedder(dim=DIM))
    return engine


def _clean(engine: Engine, right="w", **join) -> Table:
    join = {"left_on": "text", "top_k": 2, **join}
    return engine.query("f").ejoin(right, right_on="word", model="m", **join).execute()


def _memo(engine: Engine):
    (entry,) = engine._topk_memos.values()
    return entry[1]


def _known(engine: Engine) -> int:
    return sum(int((e[1]._rows[0] >= 0).sum()) for e in engine._topk_memos.values())


def _assert_same(got: Table, want: Table) -> None:
    assert got.schema.names == want.schema.names
    for name in got.schema.names:
        assert np.array_equal(got.array(name), want.array(name)), name


def test_memo_follows_the_right_registration():
    engine = _words_engine()
    first = _clean(engine)
    memo = _memo(engine)
    assert _known(engine) == len(set(FEED))
    engine.catalog.register("w", engine.catalog.get("w"), replace=True)
    _assert_same(_clean(engine), first)
    assert _memo(engine) is memo  # the same object: nothing rebuilt
    # A new table object, and one row changed to the feed's own typo.
    changed = list(WORDS)
    changed[UNSAMPLED_ROW] = "wrod-7"
    engine.catalog.register("w", _words_table(changed), replace=True)
    again = _clean(engine)
    assert _memo(engine) is not memo
    assert UNSAMPLED_ROW in again.array("wid").tolist()
    fresh = _words_engine()
    fresh.catalog.register("w", _words_table(changed), replace=True)
    _assert_same(again, _clean(fresh))


def test_memo_answers_a_repeated_feed_without_scanning():
    engine = _words_engine()
    query = engine.query("f").ejoin("w", left_on="text", right_on="word", model="m", top_k=2)
    first = query.execute()
    second = query.execute()
    stats = query.last_report.join_stats[-1]
    assert (stats.extra["memo_hits"], stats.extra["memo_misses"]) == (len(set(FEED)), 0)
    assert stats.n_left == len(set(FEED)) and stats.similarity_evaluations == 0
    _assert_same(second, first)


@pytest.mark.parametrize(
    "path",
    [
        "threshold",
        "index",
        pytest.param("int8", marks=pytest.mark.quant),
        pytest.param("pq", marks=pytest.mark.quant),
        "fp16",
        "filtered-right",
        "tensor-left",
    ],
)
def test_other_paths_neither_read_nor_fill_the_memo(path, monkeypatch):
    """Every memo row is poisoned (best match row 0, score 2.0) before the
    path runs on the same keys plus new ones: its answer is a fresh
    engine's, and no row it joined was stored."""
    engine = _words_engine()
    _clean(engine)
    count, ids, scores = _memo(engine)._rows
    ids[count >= 0], scores[count >= 0] = 0, 2.0
    known = _known(engine)
    engine.catalog.register("f", _feed_table(FEED + NEW), replace=True)
    fresh = _words_engine(feed=FEED + NEW)

    def run(target: Engine) -> Table:
        join = {
            "threshold": dict(threshold=0.6, top_k=None),
            "index": dict(strategy="index"),
            "int8": dict(strategy="tensor-int8"),
            "pq": dict(strategy="tensor-pq"),
            "filtered-right": dict(right=target.query("w").where(Col("wid") < 500)),
            "tensor-left": dict(left_on="emb"),
        }.get(path, {})
        if path == "index":
            index = FlatIndex(DIM)
            index.add(target.models.get("m").embed_batch(WORDS))
            target.register_index("w", "word", index)
        return _clean(target, **join)

    if path == "fp16":
        monkeypatch.setattr(get_config(), "default_precision", "fp16")
    _assert_same(run(engine), run(fresh))
    assert _known(engine) == known


def test_racing_sessions_on_new_keys_agree():
    """Two threads join the same never-seen keys at once: both scan them,
    the first store wins, and both answer what a fresh engine answers."""
    engine = _words_engine()
    want = _clean(_words_engine())
    barrier = threading.Barrier(2)
    results, errors = [None, None], []

    def session(i: int) -> None:
        try:
            barrier.wait(timeout=10)
            results[i] = _clean(engine)
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=session, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    for got in results:
        _assert_same(got, want)
    assert _known(engine) == len(set(FEED))


@pytest.mark.parametrize("k", [1, 2, 4])
def test_memo_bytes_per_code_stay_within_the_store_row(k):
    engine = _words_engine()
    _clean(engine, top_k=k)
    memo = _memo(engine)
    rows = len(memo._rows[0])
    memo_bytes = sum(part.nbytes for part in memo._rows)
    store = engine.embed_store_for("m")
    assert memo_bytes / rows <= store.vectors.itemsize * store.model.dim
    # One past the rule, and no memo is kept.
    other = _words_engine()
    _clean(other, top_k=(4 * DIM - 8) // 12 + 1)
    assert not other._topk_memos


def test_one_memo_per_source_whatever_the_conditions():
    """Varied conditions on one source keep one memo, the last one's, so
    its bytes stay within the store rows it indexes; every answer is a
    fresh engine's."""
    engine = _words_engine()
    conditions = [
        dict(top_k=k, min_similarity=s) for k in (1, 2, 3) for s in (None, 0.1, 0.3)
    ]
    for join in conditions + conditions[::-1]:
        _assert_same(_clean(engine, **join), _clean(_words_engine(), **join))
    assert len(engine._topk_memos) == 1
    (entry,) = engine._topk_memos.values()
    assert entry[3] == (1, None)  # the last condition's
    store = engine.embed_store_for("m")
    total = sum(part.nbytes for e in engine._topk_memos.values() for part in e[1]._rows)
    assert total <= len(entry[1]._rows[0]) * store.vectors.itemsize * store.model.dim


def test_a_registered_index_keeps_its_cold_access_path():
    """With an approximate index on the right and no strategy hint, the
    chooser prices every key whatever the memo holds: a feed the scan wins
    cold stays on the exact scan warm, gathering from the memo."""
    from repro.index import IVFFlatIndex

    typos = [f"wrod-{i}" for i in range(50)]

    def run(target: Engine):
        query = target.query("f").ejoin(
            "w", left_on="text", right_on="word", model="m", top_k=2
        )
        return query.execute(), query.last_report

    def indexed(target: Engine) -> Engine:
        index = IVFFlatIndex(DIM, nlist=32, nprobe=1, seed=0)
        index.add(target.models.get("m").embed_batch(WORDS))
        target.register_index("w", "word", index)
        return target

    want, cold = run(indexed(_words_engine(feed=typos)))
    assert cold.strategies[-1] in ("tensor", "parallel-tensor")  # the scan wins
    engine = indexed(_words_engine(feed=typos))
    for _ in range(3):
        got, report = run(engine)
        assert report.strategies == cold.strategies
        _assert_same(got, want)
    assert report.join_stats[-1].extra["memo_hits"] == len(typos)


def test_a_model_replaced_mid_query_leaves_no_mismatched_memo_rows(monkeypatch):
    """The model is replaced after a join encoded its keys: that join
    answers with the old model throughout, and the next one — under the
    new model, whose store numbers the strings differently — answers like
    a fresh engine."""
    from repro.algebra import physical_planner

    old, new = HashingEmbedder(dim=DIM, seed=1), HashingEmbedder(dim=DIM, seed=9)
    feed = FEED + NEW
    engine = _words_engine(old)
    _clean(engine)  # warm: the memo, unit rows and store are the old model's
    engine.catalog.register("f", _feed_table(feed), replace=True)
    join_keys = physical_planner._join_keys

    def replaced_after_encoding(*args):
        out = join_keys(*args)
        monkeypatch.setattr(physical_planner, "_join_keys", join_keys)
        engine.models.register("m", new, replace=True)
        return out

    monkeypatch.setattr(physical_planner, "_join_keys", replaced_after_encoding)
    _assert_same(_clean(engine), _clean(_words_engine(old, feed=feed)))
    assert engine.models.get("m") is new
    _assert_same(_clean(engine), _clean(_words_engine(new, feed=feed)))
    for entry in engine._topk_memos.values():
        assert entry[2] is engine.embed_store_for("m")


@pytest.mark.parametrize(
    "strategy",
    [
        None,
        "tensor",
        "parallel-tensor",
        pytest.param("tensor-int8", marks=pytest.mark.quant),
        pytest.param("tensor-pq", marks=pytest.mark.quant),
        "fp16",
    ],
)
def test_a_replaced_model_answers_like_a_fresh_engine(strategy, monkeypatch):
    """Store, unit matrices, quantized stores and memo all follow the model
    object registered under a name — a wider one included."""
    if strategy == "fp16":
        monkeypatch.setattr(get_config(), "default_precision", "fp16")
        strategy = None
    engine = _words_engine(HashingEmbedder(dim=DIM, seed=1))
    _clean(engine, strategy=strategy)
    engine.query("w").esimilar("word", "wrod-7", model="m", top_k=3).execute()
    for model in (HashingEmbedder(dim=DIM, seed=9), HashingEmbedder(dim=2 * DIM, seed=9)):
        engine.models.register("m", model, replace=True)
        fresh = _words_engine(model)
        _assert_same(_clean(engine, strategy=strategy), _clean(fresh, strategy=strategy))
        selection = lambda e: e.query("w").esimilar("word", "wrod-7", model="m", top_k=3)
        _assert_same(selection(engine).execute(), selection(fresh).execute())
