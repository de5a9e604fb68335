"""The access-path pick prices the cap-bounded scan: a top-k join with no
strategy hint whose right source already has a cached cap partition runs
on it when that is cheaper than the IVF probe, and gets the exact answer;
with no cached partition, or one that would not take the join, the pick is
the dense scan's against the index, as before.  No test here reads a
clock."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TopKCondition
from repro.core import caps as caps_module
from repro.core.cost_model import CostParams, choose_access_path
from repro.embedding import HashingEmbedder
from repro.index import IVFFlatIndex
from repro.query import Engine
from repro.relational import Catalog, DataType, Field, Schema, Table
from repro.reliability.faults import FaultInjector, clear_injector, install_injector
from repro.vector.norms import normalize_rows
from repro.workloads import unit_vectors

N_LEFT, N_RIGHT, DIM, K = 300, 8_000, 32, 5
KEY = ("r", "vec", "m")


def clustered(n: int, seed: int) -> np.ndarray:
    """Unit rows around 96 fixed directions: a source whose caps prune."""
    rng = np.random.default_rng(seed)
    around = normalize_rows(np.random.default_rng(5).standard_normal((96, DIM)))
    noise = rng.standard_normal((n, DIM)) * (0.3 / DIM**0.5)
    return normalize_rows((around[rng.integers(0, 96, n)] + noise).astype(np.float32))


def _vec_table(key: str, vectors: np.ndarray) -> Table:
    schema = Schema.of(Field(key, DataType.INT64), Field("vec", DataType.TENSOR, dim=DIM))
    return Table.from_arrays(schema, {key: np.arange(len(vectors)), "vec": vectors})


def make_engine(right: np.ndarray, params: CostParams | None = None) -> Engine:
    catalog = Catalog()
    catalog.register("r", _vec_table("rid", right))
    catalog.register("l", _vec_table("lid", clustered(N_LEFT, 1)))
    engine = Engine(catalog, cost_params=params or CostParams())
    engine.models.register("m", HashingEmbedder(dim=DIM))
    index = IVFFlatIndex(DIM, nlist=64, nprobe=4, seed=0)
    index.add(right)
    engine.register_index("r", "vec", index)
    return engine


@pytest.fixture()
def engine():
    return make_engine(clustered(N_RIGHT, 2))


def run(engine: Engine, strategy: str | None = None, k: int = K):
    query = (
        engine.query("l")
        .ejoin("r", left_on="vec", right_on="vec", model="m", top_k=k, strategy=strategy)
        .select(["lid", "rid", "similarity"])
    )
    return query.execute(), query.last_report.join_stats[-1]


def cached(engine: Engine):
    """The right source's cap partition if one is cached (``None`` else)."""
    ctx = engine
    return ctx.cap_partition_for(KEY, engine.catalog.get("r"), cached=True)


def parent_pick(k: int, n_right: int = N_RIGHT, params: CostParams | None = None) -> str:
    """The dense scan against the index, as priced without caps."""
    decision = choose_access_path(N_LEFT, n_right, k, DIM, params=params)
    return "index" if decision.choice == "index" else "tensor"


def test_a_cached_partition_moves_topk_auto_onto_the_exact_scan(engine):
    assert parent_pick(K) == "index"  # the pick the caps have to beat
    forced, _ = run(engine, "parallel-tensor")
    part = cached(engine)
    assert part is not None
    out, stats = run(engine)
    assert stats.strategy == "tensor" and stats.extra["cap_tasks"] >= 1
    for column in ("lid", "rid", "similarity"):
        assert np.array_equal(out.array(column), forced.array(column))
    assert cached(engine) is part  # priced and run on the one partition


def test_a_cold_source_keeps_the_index_and_builds_no_partition(engine):
    _, stats = run(engine)
    assert stats.strategy.startswith("index")
    assert cached(engine) is None
    assert ("r", "vec", "m") not in engine.sources.entries("caps")


def test_a_reregistered_source_is_priced_cold(engine):
    """The lookup follows the identity rule: a partition of the previous
    registration is never priced, and the new one is not built to price it."""
    run(engine, "parallel-tensor")
    right = engine.catalog.get("r").array("vec")
    engine.catalog.register("r", _vec_table("rid", right), replace=True)
    assert cached(engine) is None
    _, stats = run(engine)
    assert stats.strategy.startswith("index") and cached(engine) is None


@pytest.mark.parametrize(
    "right",
    [unit_vectors(N_RIGHT, DIM, seed=3), clustered(4_000, 2)],
    ids=["uniform", "under-4096-rows"],
)
def test_a_declining_source_keeps_the_index_pick(right):
    # A cheaper graph hop makes the index beat the dense scan on 4,000 rows too.
    params = CostParams(probe_hop=2.0)
    engine = make_engine(right, params)
    run(engine, "parallel-tensor")
    assert ("r", "vec", "m") in engine.sources.entries("caps") and cached(engine) is None
    _, stats = run(engine)
    assert stats.strategy.startswith("index") and parent_pick(K, len(right), params) == "index"


def test_k_over_the_decline_share_keeps_the_parent_pick(engine):
    k = int(caps_module.DECLINE_SHARE * N_RIGHT) + 1
    run(engine, "parallel-tensor", k=K)
    part = cached(engine)
    assert part is not None and part.probe_terms(TopKCondition(k)) is None
    _, stats = run(engine, k=k)
    pick = "index" if stats.strategy.startswith("index") else "tensor"
    assert pick == parent_pick(k)


def test_a_tripped_index_breaker_lands_on_the_scan(engine):
    run(engine, "parallel-tensor")
    for _ in range(3):  # the default breaker threshold
        engine.breakers.record_failure((*KEY, "index"))
    _, stats = run(engine)
    assert stats.strategy == "tensor" and stats.extra["cap_tasks"] >= 1


def test_kept_share_is_measured_below_the_decline_share(engine):
    run(engine, "parallel-tensor")
    part = cached(engine)
    assert 0.0 <= part.kept_share < caps_module.DECLINE_SHARE
    assert part.probe_terms(TopKCondition(K)) == (len(part.radius), part.kept_share)


def test_each_engine_owns_its_index_breaker():
    """Engine A's failing probe trips A's breaker only: B, healthy with its
    own index, stays ``ok``, keeps its unhinted pick on its index, and its
    own successful probe leaves A's breaker open."""
    first, second = (make_engine(clustered(N_RIGHT, 2)) for _ in range(2))
    install_injector(
        FaultInjector(1.0, seed=9, sites=("index.probe",), kinds=("permanent",))
    )
    try:
        for _ in range(3):  # the default breaker threshold
            _, stats = run(first, "index")
            assert stats.strategy == "tensor"
    finally:
        clear_injector()
    index_path = "r/vec/m/index"
    assert first.breakers.snapshot()[index_path]["state"] == "open"

    with second.serve() as service:
        health = service.health()
    assert health.status == "ok" and health.open_breakers == 0
    assert run(second)[1].strategy.startswith("index")
    assert run(second, "index")[1].strategy.startswith("index")
    assert first.breakers.snapshot()[index_path]["state"] == "open"
    with first.serve() as service:
        assert service.health().status == "degraded"


def test_an_engines_contexts_carry_its_one_registry(engine):
    """Each engine has a registry of its own, and so does each context
    built bare."""
    from repro.algebra import ExecutionContext

    assert make_engine(clustered(64, 4)).breakers is not engine.breakers
    bare = ExecutionContext(engine.catalog)
    assert bare.breakers is not engine.breakers
    assert bare.breakers is not ExecutionContext(engine.catalog).breakers


@pytest.mark.obs
def test_the_planner_span_prices_each_alternative(engine):
    """``planner.ejoin`` records the path taken and both prices, and the
    caps' measured share when they were priced."""
    from repro.obs.trace import QueryScope, Trace

    def traced() -> dict:
        trace = Trace("q", "t")
        with QueryScope(trace):
            run(engine)
        (span,) = trace.find("planner.ejoin")
        return span.attrs

    cold = traced()
    assert cold["access"] == "index" and "caps_share" not in cold
    assert cold["cost_index"] < cold["cost_scan"]
    run(engine, "parallel-tensor")
    warm = traced()
    assert warm["access"] == "scan" and warm["strategy"] == "tensor"
    assert warm["caps_share"] == cached(engine).kept_share
    assert warm["cost_scan"] < warm["cost_index"]
