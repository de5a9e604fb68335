"""Scan-source state (unit rows, quantized stores) follows the catalog:
valid for one registration of its table — the ``Table`` object the query
executed — never for a look-alike."""

from __future__ import annotations

import numpy as np
import pytest

from repro.query import Engine
from repro.relational import Catalog, DataType, Field, Schema, Table
from repro.embedding import HashingEmbedder
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
