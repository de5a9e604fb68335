"""Concurrent use of a shared Engine matches serial execution exactly.

Satellite of the service PR: N threads issue mixed eselect/ejoin queries
against one shared catalog/engine and must produce bit-identical results
to running the same queries serially — including the shared-store paths
(embed-once stores, normalize-once matrices, quantized stores), whose
get-or-build is serialized by the engine's store lock.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

import repro.config as config_mod
from repro.embedding import HashingEmbedder
from repro.embedding.cache import EmbeddingStore
from repro.query import Engine
from repro.relational import Catalog, DataType, Field, Table
from repro.relational.column import Column
from repro.workloads import unit_vectors

DIM = 12
MODEL = "m"


def _table(n: int, stream: str) -> Table:
    return Table.from_columns(
        [
            Column(Field("id", DataType.INT64), np.arange(n)),
            Column(Field("emb", DataType.TENSOR, dim=DIM), unit_vectors(n, DIM, stream=stream)),
        ]
    )


def _make_engine() -> Engine:
    catalog = Catalog()
    catalog.register("left", _table(90, "conc/left"))
    catalog.register("right", _table(300, "conc/right"))
    engine = Engine(catalog)
    engine.models.register(MODEL, HashingEmbedder(dim=DIM))
    return engine


def _builders(engine: Engine, qvecs) -> list:
    out = []
    for i, q in enumerate(qvecs):
        kind = i % 3
        if kind == 0:
            out.append(
                engine.query("right").esimilar("emb", q, model=MODEL, top_k=4)
            )
        elif kind == 1:
            out.append(
                engine.query("right").esimilar(
                    "emb", q, model=MODEL, threshold=0.3
                )
            )
        else:
            out.append(
                engine.query("left").ejoin(
                    "right", left_on="emb", right_on="emb", model=MODEL, top_k=2
                )
            )
    return out


def _run_concurrently(engine: Engine, builders: list, n_threads: int) -> list:
    results = [None] * len(builders)
    errors: list = []
    barrier = threading.Barrier(n_threads)

    def worker(w: int) -> None:
        try:
            barrier.wait()
            for i in range(w, len(builders), n_threads):
                results[i] = builders[i].execute()
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(w,), daemon=True)
        for w in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    return results


def _assert_equal(a: Table, b: Table, context: str) -> None:
    assert a.schema.names == b.schema.names, context
    for name in a.schema.names:
        assert np.array_equal(a.array(name), b.array(name)), (
            f"{context}: column {name!r} differs"
        )


def test_concurrent_mixed_queries_match_serial():
    qvecs = unit_vectors(18, DIM, stream="conc/queries")
    serial_engine = _make_engine()
    serial = [b.execute() for b in _builders(serial_engine, qvecs)]

    shared_engine = _make_engine()
    results = _run_concurrently(shared_engine, _builders(shared_engine, qvecs), 6)
    for i, (a, b) in enumerate(zip(serial, results)):
        _assert_equal(a, b, f"query {i}")


def test_concurrent_repeats_on_one_engine_match_first_run():
    """Cache-hit paths: re-running the same queries on the same engine
    (warm stores, warm normalized matrices) is still bit-identical."""
    qvecs = unit_vectors(12, DIM, stream="conc/repeat")
    engine = _make_engine()
    first = [b.execute() for b in _builders(engine, qvecs)]
    repeat = _run_concurrently(engine, _builders(engine, qvecs), 4)
    for i, (a, b) in enumerate(zip(first, repeat)):
        _assert_equal(a, b, f"repeat query {i}")


@pytest.mark.quant
def test_concurrent_quantized_store_built_once():
    """Racing eselects under a quantized precision build one store."""
    original = config_mod.get_config().default_precision
    config_mod.configure(default_precision="int8")
    try:
        engine = _make_engine()
        qvecs = unit_vectors(8, DIM, stream="conc/quant")
        builders = [
            engine.query("right").esimilar("emb", q, model=MODEL, top_k=3)
            for q in qvecs
        ]
        serial_engine = _make_engine()
        serial = [
            serial_engine.query("right")
            .esimilar("emb", q, model=MODEL, top_k=3)
            .execute()
            for q in qvecs
        ]
        results = _run_concurrently(engine, builders, 4)
        for i, (a, b) in enumerate(zip(serial, results)):
            _assert_equal(a, b, f"quant query {i}")
        stores = [
            key for key in engine._quant_stores if key[0] == "right"
        ]
        assert len(stores) <= 1  # racing builds deduplicated by the lock
    finally:
        config_mod.configure(default_precision=original)


def test_embedding_store_concurrent_add_items_consistent():
    """Racing add_items embed each unique item exactly once."""
    model = HashingEmbedder(dim=DIM)
    store = EmbeddingStore(model)
    words = [f"word-{i}" for i in range(40)]
    barrier = threading.Barrier(8)
    errors: list = []

    def worker(w: int) -> None:
        try:
            barrier.wait()
            for _ in range(5):
                store.embed_items(words)
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(w,), daemon=True) for w in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    assert len(store) == len(words)
    expected = model.embed_batch(words)
    assert np.array_equal(store.embed_items(words), expected)


def test_embedding_store_ids_and_views_stable_across_growth():
    """Writers grow the store through 100+ appends (and several buffer
    reallocations) while readers hold views: an id handed out once always
    names the same vector, in any view taken at or after that time."""
    model = HashingEmbedder(dim=DIM)
    store = EmbeddingStore(model)
    steps, per_step = 100, 30
    errors: list = []
    barrier = threading.Barrier(4)

    def writer(w: int) -> None:
        try:
            barrier.wait()
            for step in range(steps):
                words = [f"w{w}-s{step}-{i}" for i in range(per_step)]
                view_before = store.vectors
                ids = store.add_items(words + words[:3])  # in-batch duplicates
                assert ids[-3:].tolist() == ids[:3].tolist()
                view = store.vectors
                assert np.array_equal(view[ids[:per_step]], model.embed_batch(words))
                assert store.add_items(words).tolist() == ids[:per_step].tolist()
                # The older view is still what it was: appends land behind it.
                assert np.array_equal(view_before, view[: len(view_before)])
        except BaseException as exc:
            errors.append(exc)

    def reader() -> None:
        try:
            barrier.wait()
            held: list[tuple[np.ndarray, np.ndarray]] = []
            for _ in range(steps):
                view = store.vectors
                held.append((view, view.copy()))
            for view, snapshot in held:
                assert np.array_equal(view, snapshot)  # never rewritten
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=writer, args=(w,), daemon=True) for w in range(3)
    ] + [threading.Thread(target=reader, daemon=True)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the GIL over mid-update, often
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert len(store) == 3 * steps * per_step
    assert store.vectors.base is not None  # a view of the grown buffer, no copy
    items = store.items()
    assert np.array_equal(store.vectors, model.embed_batch(items))
    assert [store.id_of(item) for item in items[::97]] == list(range(0, len(items), 97))


def test_tagged_engine_views_share_stats():
    engine = _make_engine()
    ctx_a = engine.context(tag="qa")
    ctx_b = engine.context(tag="qb")
    ctx_a.engine.run([lambda: 1, lambda: 2])
    ctx_b.engine.run([lambda: 3])
    stats = engine.executor.stats
    assert stats.by_tag == {"qa": 2, "qb": 1}
    assert stats.morsels_dispatched == 3


def test_by_tag_attribution_is_bounded():
    """Unique per-query tags must not grow engine stats without bound."""
    from repro.engine import ExecutionEngine
    from repro.engine.executor import MAX_TRACKED_TAGS

    engine = ExecutionEngine(n_threads=1)
    extra = 50
    for i in range(MAX_TRACKED_TAGS + extra):
        engine.with_tag(f"q{i}").run([lambda: None])
    stats = engine.stats
    assert len(stats.by_tag) <= MAX_TRACKED_TAGS + 1  # incl. the aggregate
    assert sum(stats.by_tag.values()) == MAX_TRACKED_TAGS + extra
    assert stats.by_tag["<evicted>"] == extra
    # The most recent tags are the ones retained.
    assert f"q{MAX_TRACKED_TAGS + extra - 1}" in stats.by_tag
