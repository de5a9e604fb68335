"""Helpers shared by the service test modules."""

from __future__ import annotations

import numpy as np

from repro.embedding import HashingEmbedder
from repro.query import Engine
from repro.relational import Catalog, DataType, Field, Table
from repro.relational.column import Column
from repro.workloads import unit_vectors

DIM = 16
N_ROWS = 400
MODEL = "m"


def make_corpus_table(n: int = N_ROWS, *, stream: str = "svc-tests/base") -> Table:
    vectors = unit_vectors(n, DIM, stream=stream)
    return Table.from_columns(
        [
            Column(Field("id", DataType.INT64), np.arange(n)),
            Column(Field("emb", DataType.TENSOR, dim=DIM), vectors),
        ]
    )


def make_engine() -> Engine:
    catalog = Catalog()
    catalog.register("corpus", make_corpus_table())
    catalog.register("other", make_corpus_table(120, stream="svc-tests/other"))
    engine = Engine(catalog)
    engine.models.register(MODEL, HashingEmbedder(dim=DIM))
    return engine


def assert_tables_equal(a: Table, b: Table, *, context: str = "") -> None:
    assert a.schema.names == b.schema.names, f"{context}: schemas differ"
    for name in a.schema.names:
        left, right = a.array(name), b.array(name)
        assert np.array_equal(left, right), (
            f"{context}: column {name!r} differs: {left[:5]} vs {right[:5]}"
        )


def blocker(engine: Engine, i: int):
    """The ``i``-th slot-holding query (``hold_scan_slots``): a top-1 over
    ``corpus`` with a vector no test query shares."""
    vector = np.random.default_rng(10_000 + i).standard_normal(DIM)
    return engine.query("corpus").esimilar(
        "emb", vector.astype(np.float32), model=MODEL, top_k=1
    )
