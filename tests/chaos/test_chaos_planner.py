"""Chaos: planner access paths route around injected faults via breakers.

Fallback never changes answers, only speed: every fallback target in the
chain (pq -> int8 -> fp32 scan, index -> scan) is an exact path, so the
results under faults must be bit-identical to a clean fp32/scan run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algebra import (
    EJoinNode,
    ExecutionContext,
    ExecutionReport,
    ScanNode,
    execute,
)
from repro.config import configure
from repro.core import TopKCondition
from repro.embedding import HashingEmbedder, ModelRegistry
from repro.index import FlatIndex
from repro.reliability.breaker import breakers
from repro.reliability.faults import FaultInjector, install_injector
from repro.relational import Catalog, DataType, Field, Schema, Table

from _chaos_utils import assert_tables_equal

pytestmark = pytest.mark.chaos

DIM = 16


def make_ctx() -> ExecutionContext:
    schema = Schema.of(
        Field("id", DataType.INT64), Field("emb", DataType.TENSOR, dim=DIM)
    )

    def table(n: int, seed: int) -> Table:
        rng = np.random.default_rng(seed)
        return Table.from_arrays(
            schema,
            {
                "id": np.arange(n),
                "emb": rng.standard_normal((n, DIM)).astype(np.float32),
            },
        )

    catalog = Catalog()
    catalog.register("probes", table(40, 1))
    catalog.register("base", table(300, 2))
    models = ModelRegistry()
    models.register("hash", HashingEmbedder(dim=DIM, seed=3))
    return ExecutionContext(catalog, models=models)


def make_join(**kwargs) -> EJoinNode:
    return EJoinNode(
        ScanNode("probes"),
        ScanNode("base"),
        "emb",
        "emb",
        "hash",
        TopKCondition(3),
        prefetch=True,
        **kwargs,
    )


@pytest.fixture(autouse=True)
def _restore_precision():
    yield
    configure(default_precision="fp32", default_min_recall=0.95)


@pytest.mark.parametrize("forced", [None, "tensor-int8", "tensor-pq"])
def test_an_input_error_is_raised_once_and_trips_no_breaker(forced, monkeypatch):
    """A NaN row is the caller's error, not the quantized path's: the
    ``JoinError`` leaves the first scan that meets it — no breaker
    failure, no fallback entry, no second scan raising it again."""
    from repro.algebra import physical_planner
    from repro.errors import JoinError

    if forced is None:
        configure(default_precision="int8", default_min_recall=0.9)
    ctx = make_ctx()
    poisoned = ctx.catalog.get("base").array("emb").copy()
    poisoned[7] = np.nan
    ctx.catalog.register(
        "base",
        Table.from_arrays(
            ctx.catalog.get("base").schema,
            {"id": np.arange(len(poisoned)), "emb": poisoned},
        ),
        replace=True,
    )
    scans = []
    ejoin = physical_planner.ejoin
    monkeypatch.setattr(
        physical_planner, "ejoin",
        lambda *args, **kwargs: scans.append(kwargs["strategy"]) or ejoin(*args, **kwargs),
    )
    report = ExecutionReport()
    with pytest.raises(JoinError, match="non-finite"):
        execute(make_join(strategy_hint=forced), ctx, report=report)
    assert report.fallbacks == []
    assert all(
        entry["failures"] == 0 and entry["state"] == "closed"
        for entry in breakers().snapshot().values()
    )
    assert len(scans) <= 1  # the store build may raise before any scan


def test_quant_build_faults_fall_back_to_exact_and_trip_breaker():
    """Failing int8 store builds: every query still answers exactly via
    the fp32 scan; after the threshold the breaker stops even trying."""
    reference = execute(make_join(), make_ctx())  # clean fp32 scan

    configure(default_precision="int8", default_min_recall=0.9)
    clean = ExecutionReport()
    execute(make_join(), make_ctx(), report=clean)
    assert clean.strategies == ["tensor-int8"]  # faults are the only cause

    ctx = make_ctx()
    injector = install_injector(
        FaultInjector(1.0, seed=3, sites=("quant.build",), kinds=("permanent",))
    )
    for _ in range(3):  # default breaker threshold
        report = ExecutionReport()
        out = execute(make_join(), ctx, report=report)
        assert report.fallbacks == ["base/emb/hash/int8"]
        assert report.strategies == ["tensor"]
        assert_tables_equal(out, reference, context="int8 fallback")
    assert breakers().snapshot()["base/emb/hash/int8"]["state"] == "open"

    # Open breaker: the planner routes straight to fp32 without touching
    # the failing build path at all.
    checks_before = injector.stats.snapshot()["by_site"].get("quant.build", 0)
    report = ExecutionReport()
    out = execute(make_join(), ctx, report=report)
    assert report.fallbacks == []
    assert report.strategies == ["tensor"]
    assert_tables_equal(out, reference, context="breaker-gated")
    checks_after = injector.stats.snapshot()["by_site"].get("quant.build", 0)
    assert checks_after == checks_before


def test_pq_faults_walk_the_chain_down_to_int8():
    """A failing pq store falls to int8 (still quantized) when only the
    pq path is broken, not all the way to fp32."""
    configure(default_precision="pq", default_min_recall=0.9)
    ctx = make_ctx()
    # Pre-open only the pq breaker; int8 stays healthy.
    for _ in range(3):
        breakers().record_failure(("base", "emb", "hash", "pq"))
    report = ExecutionReport()
    out = execute(make_join(), ctx, report=report)
    assert report.strategies in (["tensor-int8"], ["tensor"])
    assert out.num_rows > 0


def test_index_probe_faults_fall_back_to_scan_and_trip_breaker():
    def with_index(ctx: ExecutionContext) -> ExecutionContext:
        base = ctx.catalog.get("base")
        index = FlatIndex(DIM)
        index.add(base.array("emb"))
        ctx.register_index("base", "emb", index)
        return ctx

    reference = execute(make_join(), make_ctx())  # clean scan

    ctx = with_index(make_ctx())
    injector = install_injector(
        FaultInjector(1.0, seed=4, sites=("index.probe",), kinds=("transient",))
    )
    for _ in range(3):
        report = ExecutionReport()
        out = execute(make_join(strategy_hint="index"), ctx, report=report)
        assert report.fallbacks == ["base/emb/hash/index"]
        assert report.strategies == ["tensor"]
        assert_tables_equal(out, reference, context="index fallback")
    assert breakers().snapshot()["base/emb/hash/index"]["state"] == "open"

    # Auto path with the breaker open: the cost model sees "no index"
    # and lands on the scan without a single probe.
    probes_before = injector.stats.snapshot()["by_site"].get("index.probe", 0)
    report = ExecutionReport()
    out = execute(make_join(), ctx, report=report)
    assert report.fallbacks == []
    assert report.strategies == ["tensor"]
    assert_tables_equal(out, reference, context="breaker-gated index")
    assert injector.stats.snapshot()["by_site"].get("index.probe", 0) == (
        probes_before
    )


def test_index_breaker_success_closes_again():
    """A healthy probe after the cooldown trial closes the breaker."""
    key = ("base", "emb", "hash", "index")
    registry = breakers()
    for _ in range(3):
        registry.record_failure(key)
    assert registry.snapshot()["base/emb/hash/index"]["state"] == "open"
    registry.record_success(key)
    assert registry.snapshot()["base/emb/hash/index"]["state"] == "closed"


def test_join_and_selection_walk_the_same_chain_past_a_tripped_pq_breaker():
    """``_execute_ejoin`` and ``_execute_eselect`` share one precision
    walk: past an open pq breaker to int8, past a failing int8 build to
    the exact scan with the same fallback string, straight to the exact
    scan once int8 has tripped too, and back onto int8 when it heals."""
    from repro.algebra import ESelectNode
    from repro.reliability.faults import clear_injector

    configure(default_precision="pq", default_min_recall=0.9)
    ctx = make_ctx()
    join = make_join(strategy_hint="tensor-pq")
    select = ESelectNode(
        ScanNode("base"), "emb", np.ones(DIM, dtype=np.float32), "hash",
        TopKCondition(5),
    )

    def run(plan):
        report = ExecutionReport()
        return execute(plan, ctx, report=report), report

    def states():
        return {
            key.rsplit("/", 1)[1]: entry["state"]
            for key, entry in breakers().snapshot().items()
        }

    # Healthy: the join builds the pq store, the selection amortizes it.
    assert run(join)[1].strategies == ["tensor-pq"]
    assert run(select)[1].strategies == ["eselect/pq"]
    exact_join = execute(make_join(strategy_hint="tensor"), make_ctx())
    configure(default_precision="fp32")
    exact_select = execute(select, make_ctx())
    configure(default_precision="pq", default_min_recall=0.9)

    for _ in range(3):
        breakers().record_failure(("base", "emb", "hash", "pq"))
    assert states() == {"pq": "open"}
    install_injector(
        FaultInjector(1.0, seed=5, sites=("quant.build",), kinds=("permanent",))
    )
    # pq is open, int8 cannot build: both land on the exact scan and name
    # the path that failed.  Join, selection, join: int8 trips on the third.
    for plan, strategy, reference in (
        (join, "tensor", exact_join),
        (select, "eselect/scan", exact_select),
        (join, "tensor", exact_join),
    ):
        out, report = run(plan)
        assert report.fallbacks == ["base/emb/hash/int8"]
        assert report.strategies == [strategy]
        assert_tables_equal(out, reference, context=f"{strategy} fallback")
    assert states() == {"pq": "open", "int8": "open"}
    # Both open: neither operator touches a quantized path or reports one.
    for plan, strategy in ((join, "tensor"), (select, "eselect/scan")):
        _, report = run(plan)
        assert report.fallbacks == [] and report.strategies == [strategy]

    # int8 heals (pq stays tripped): both operators settle on int8.
    clear_injector()
    breakers().record_success(("base", "emb", "hash", "int8"))
    for plan, strategy in ((join, "tensor-int8"), (select, "eselect/int8")):
        _, report = run(plan)
        assert report.fallbacks == [] and report.strategies == [strategy]
    assert states() == {"pq": "open", "int8": "closed"}
