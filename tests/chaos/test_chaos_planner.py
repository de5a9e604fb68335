"""Chaos: planner access paths route around injected faults via breakers.

Fallback never changes answers, only speed: the fallback target of a
hinted code scan (int8 -> fp32 scan) and of an index (index -> scan) is
an exact path, so the results under faults must be bit-identical to a
clean fp32/scan run.
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
from repro.core import ThresholdCondition, TopKCondition
from repro.embedding import HashingEmbedder, ModelRegistry
from repro.index import FlatIndex
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


@pytest.mark.parametrize("forced", [None, "tensor-int8", "tensor", "parallel-tensor"])
def test_an_input_error_is_raised_once_and_trips_no_breaker(forced, monkeypatch):
    """A NaN row is the caller's error, not the quantized path's: the
    ``JoinError`` leaves the first scan that meets it, whichever scan the
    hint names — no breaker failure, no fallback entry, no second scan
    raising it again."""
    from repro.algebra import physical_planner
    from repro.errors import JoinError

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
        for entry in ctx.breakers.snapshot().values()
    )
    assert len(scans) <= 1  # the store build may raise before any scan


def test_quant_build_faults_fall_back_to_exact_and_trip_breaker():
    """Failing int8 store builds: every hinted query still answers exactly
    via the fp32 scan; after the threshold the breaker stops even trying."""
    reference = execute(make_join(), make_ctx())  # clean fp32 scan
    hinted = make_join(strategy_hint="tensor-int8")

    clean = ExecutionReport()
    execute(hinted, make_ctx(), report=clean)
    assert clean.strategies == ["tensor-int8"]  # faults are the only cause

    ctx = make_ctx()
    injector = install_injector(
        FaultInjector(1.0, seed=3, sites=("quant.build",), kinds=("permanent",))
    )
    for _ in range(3):  # default breaker threshold
        report = ExecutionReport()
        out = execute(hinted, ctx, report=report)
        assert report.fallbacks == ["base/emb/hash/int8"]
        assert report.strategies == ["tensor"]
        assert_tables_equal(out, reference, context="int8 fallback")
    assert ctx.breakers.snapshot()["base/emb/hash/int8"]["state"] == "open"

    # Open breaker: the planner routes straight to fp32 without touching
    # the failing build path at all.
    checks_before = injector.stats.snapshot()["by_site"].get("quant.build", 0)
    report = ExecutionReport()
    out = execute(hinted, ctx, report=report)
    assert report.fallbacks == []
    assert report.strategies == ["tensor"]
    assert_tables_equal(out, reference, context="breaker-gated")
    checks_after = injector.stats.snapshot()["by_site"].get("quant.build", 0)
    assert checks_after == checks_before


def test_selection_has_no_fallback_edge():
    """A selection reads the unit rows whatever the quantized paths'
    health: it never builds a store, consults a breaker or reports a
    fallback, and answers as on a clean context."""
    from repro.algebra import ESelectNode

    select = ESelectNode(
        ScanNode("base"), "emb", np.ones(DIM, dtype=np.float32), "hash",
        ThresholdCondition(0.3),
    )
    reference = execute(select, make_ctx())
    ctx = make_ctx()
    for _ in range(3):
        ctx.breakers.record_failure(("base", "emb", "hash", "int8"))
    injector = install_injector(
        FaultInjector(1.0, seed=7, sites=("quant.build",), kinds=("permanent",))
    )
    report = ExecutionReport()
    out = execute(select, ctx, report=report)
    assert report.fallbacks == [] and report.strategies == ["eselect/scan"]
    assert_tables_equal(out, reference, context="selection")
    assert injector.stats.snapshot()["by_site"].get("quant.build", 0) == 0


@pytest.mark.parametrize("method", ["int8"])
def test_a_tripped_code_breaker_stays_with_its_context(method):
    """A code path tripped on one context is closed on another: that one
    builds its own store and scans the codes its hint names."""
    tripped = make_ctx()
    for _ in range(3):
        tripped.breakers.record_failure(("base", "emb", "hash", method))
    hinted = make_join(strategy_hint=f"tensor-{method}")
    report = ExecutionReport()
    execute(hinted, tripped, report=report)
    assert report.strategies == ["tensor"]
    healthy = make_ctx()
    report = ExecutionReport()
    execute(hinted, healthy, report=report)
    assert report.strategies == [f"tensor-{method}"] and report.fallbacks == []
    assert healthy.breakers.open_count() == 0
    assert tripped.breakers.open_count() == 1


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
    assert ctx.breakers.snapshot()["base/emb/hash/index"]["state"] == "open"

    # Unhinted join with the breaker open: the cost model sees "no index"
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
    registry = make_ctx().breakers
    for _ in range(3):
        registry.record_failure(key)
    assert registry.snapshot()["base/emb/hash/index"]["state"] == "open"
    registry.record_success(key)
    assert registry.snapshot()["base/emb/hash/index"]["state"] == "closed"


def test_int8_join_falls_to_exact_and_heals():
    """A hinted int8 join falls past a failing int8 build to the exact
    scan, naming the path that failed, goes straight to the exact scan
    once int8 has tripped, and back onto int8 when it heals."""
    from repro.reliability.faults import clear_injector

    ctx = make_ctx()
    join = make_join(strategy_hint="tensor-int8")

    def run():
        report = ExecutionReport()
        return execute(join, ctx, report=report), report

    def states():
        return {
            key.rsplit("/", 1)[1]: entry["state"]
            for key, entry in ctx.breakers.snapshot().items()
        }

    exact = execute(make_join(strategy_hint="tensor"), make_ctx())
    install_injector(
        FaultInjector(1.0, seed=5, sites=("quant.build",), kinds=("permanent",))
    )
    # int8 cannot build: the exact scan answers, and int8 trips on the
    # third failure.
    for _ in range(3):
        out, report = run()
        assert report.fallbacks == ["base/emb/hash/int8"]
        assert report.strategies == ["tensor"]
        assert_tables_equal(out, exact, context="int8 fallback")
    assert states() == {"int8": "open"}
    # Open: the join touches no quantized path and reports none.
    _, report = run()
    assert report.fallbacks == [] and report.strategies == ["tensor"]

    # int8 heals: the join settles on int8.
    clear_injector()
    ctx.breakers.record_success(("base", "emb", "hash", "int8"))
    _, report = run()
    assert report.fallbacks == [] and report.strategies == ["tensor-int8"]
    assert states() == {"int8": "closed"}
