"""Helpers shared by the shard test modules.

The tiled corpus is the adversarial fixture: every vector appears twice,
once in each half, so a 2-shard split puts an equal-score duplicate of
every row on the far side of the shard boundary.  Any tie-break drift
between the sharded and serial paths shows up immediately.
"""

from __future__ import annotations

import numpy as np

from repro.embedding import HashingEmbedder
from repro.query import Engine
from repro.relational import Catalog, DataType, Field, Table
from repro.relational.column import Column
from repro.workloads import unit_vectors

DIM = 16
N_ROWS = 4_000
MODEL = "m"
KEY = ("corpus", "emb", MODEL)


def corpus_vectors(
    n: int = N_ROWS, *, tiled: bool = True, stream: str = "shard-tests/base"
) -> np.ndarray:
    """``n`` unit vectors; tiled => second half duplicates the first."""
    if tiled:
        half = unit_vectors(n // 2, DIM, stream=stream)
        return np.concatenate([half, half], axis=0)
    return unit_vectors(n, DIM, stream=stream)


def make_engine(vectors: np.ndarray | None = None) -> Engine:
    vectors = corpus_vectors() if vectors is None else vectors
    table = Table.from_columns(
        [
            Column(Field("id", DataType.INT64), np.arange(len(vectors))),
            Column(Field("emb", DataType.TENSOR, dim=DIM), vectors),
        ]
    )
    catalog = Catalog()
    catalog.register("corpus", table)
    engine = Engine(catalog)
    engine.models.register(MODEL, HashingEmbedder(dim=DIM))
    return engine


def normalized_for(engine: Engine) -> np.ndarray:
    """The engine's normalized scan matrix for the corpus key."""
    ctx = engine.context(tag="shard-tests")
    return ctx.normalized_matrix_for(KEY, ctx.catalog.get(KEY[0]))
