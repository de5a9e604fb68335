"""Helpers shared by the served-caps test modules: a clustered corpus the
caps pay on, an engine over it, and the steps that land its partition."""

from __future__ import annotations

import threading

import numpy as np

from repro.embedding import HashingEmbedder
from repro.query import Engine
from repro.relational import Catalog, DataType, Field, Schema, Table
from repro.vector.norms import normalize_rows

DIM = 16
N_ROWS = 8_192
KEY = ("corpus", "vec", "m")
TRIGGER = 3


def clustered(n: int, seed: int) -> np.ndarray:
    """Unit rows around 48 fixed directions: a source the caps pay on."""
    rng = np.random.default_rng(seed)
    around = normalize_rows(np.random.default_rng(7).standard_normal((48, DIM)))
    noise = rng.standard_normal((n, DIM)) * (0.25 / DIM**0.5)
    return normalize_rows((around[rng.integers(0, 48, n)] + noise).astype(np.float32))


def corpus(seed: int = 2) -> Table:
    schema = Schema((Field("id", DataType.INT64), Field("vec", DataType.TENSOR, dim=DIM)))
    return Table.from_arrays(schema, {"id": np.arange(N_ROWS), "vec": clustered(N_ROWS, seed)})


def make_engine(table: Table | None = None) -> Engine:
    catalog = Catalog()
    catalog.register("corpus", corpus() if table is None else table)
    schema = Schema((Field("pid", DataType.INT64), Field("vec", DataType.TENSOR, dim=DIM)))
    catalog.register(
        "probes", Table.from_arrays(schema, {"pid": np.arange(300), "vec": clustered(300, 4)})
    )
    engine = Engine(catalog)
    engine.models.register("m", HashingEmbedder(dim=DIM))
    return engine


def query(engine: Engine, vector, **terms):
    return engine.query("corpus").esimilar("vec", vector, model="m", **terms)


def run(engine: Engine, vector, **terms):
    """A serial selection's table and the prescreen it ran."""
    return run_probe(engine, vector, **terms)[:2]


def run_probe(engine: Engine, vector, **terms):
    """A serial selection's table, its prescreen and its probe order."""
    builder = query(engine, vector, **terms)
    table = builder.execute()
    extra = builder.last_report.join_stats[-1].extra
    return table, extra["prescreen"], extra["probe"]


def wait_for_builds() -> None:
    for thread in threading.enumerate():
        if thread.name == "repro-caps-build":
            thread.join(60)
            assert not thread.is_alive(), "a cap build never finished"


def partition(engine: Engine):
    return engine.cap_partition_for(KEY, engine.catalog.get("corpus"), cached=True)


def land_caps(engine: Engine, vectors) -> None:
    """Serve ``TRIGGER`` dense selections, then wait for the build."""
    for vector in vectors[:TRIGGER]:
        assert run(engine, vector, top_k=3)[1] == "dense"
    wait_for_builds()
    assert partition(engine) is not None
