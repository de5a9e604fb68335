"""Served E-selections on the source's caps, built off-thread.

A scan source's partition is built on a daemon thread once the source has
served ``SELECTIONS_PER_BUILD`` dense selections against one registration
(lowered here).  Until it lands every selection scans dense; after, groups
and serial selections prescreen on it — and every answer stays bit for bit
the dense one's.  A served selection probes its caps row by row from the
unit rows, so it never makes the partition's cap-ordered copy; the first
join on the source makes it, once.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time

import numpy as np
import pytest

from repro.algebra import physical_planner
from repro.core import ThresholdCondition, TopKCondition, select_group
from repro.core.caps import cap_join
from repro.query import Engine
from repro.relational import Table
from repro.service import QueryService
from repro.service import coalescer as coalescer_module

from _caps_utils import (
    KEY,
    TRIGGER,
    clustered,
    corpus,
    land_caps,
    make_engine,
    partition,
    query,
    run,
    run_probe,
    wait_for_builds,
)
from _service_utils import assert_tables_equal

pytestmark = pytest.mark.service


@pytest.fixture(autouse=True)
def trigger(monkeypatch):
    monkeypatch.setattr(physical_planner, "SELECTIONS_PER_BUILD", TRIGGER)


@pytest.fixture()
def vectors() -> np.ndarray:
    return clustered(64, 9)


def dense_reference(table: Table, specs) -> list[Table]:
    """Each spec's answer from an engine that never builds caps."""
    engine = make_engine(table)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(physical_planner, "SELECTIONS_PER_BUILD", 10**9)
        answers = [run(engine, vector, **terms) for vector, terms in specs]
    assert all(prescreen == "dense" for _, prescreen in answers)
    return [table for table, _ in answers]


def test_mixed_groups_on_the_caps_equal_serial_dense_answers(
    vectors, hold_scan_slots, monkeypatch
):
    engine = make_engine()
    land_caps(engine, vectors)
    specs = [
        (vectors[10], {"top_k": 5}),
        (vectors[10], {"threshold": 0.9}),  # a duplicate vector, a threshold
        (vectors[11], {"top_k": 8, "min_similarity": 0.95}),
        (vectors[12], {"threshold": 0.97}),
        (vectors[10], {"top_k": 2}),
        (vectors[13], {"top_k": 1}),
    ]
    want = dense_reference(engine.catalog.get("corpus"), specs)
    prescreens = []
    select_group = coalescer_module.select_group

    def spy(*args, **kwargs):
        group = select_group(*args, **kwargs)
        prescreens.append((len(args[1]), group.prescreen))
        return group

    monkeypatch.setattr(coalescer_module, "select_group", spy)
    service = QueryService(engine, coalesce=True, result_cache_size=0)
    try:
        held = hold_scan_slots(service, lambda i: query(engine, vectors[40 + i], top_k=1))
        got = held.run_queued([lambda b=query(engine, v, **t): service.submit(b) for v, t in specs])
    finally:
        service.shutdown()
    assert (len(specs), "caps") in prescreens
    for i, (a, b) in enumerate(zip(want, got)):
        assert_tables_equal(a, b, context=f"request {i}")
    for i, (vector, terms) in enumerate(specs):  # serial, on the caps
        table, prescreen = run(engine, vector, **terms)
        assert prescreen == "caps"
        assert_tables_equal(want[i], table, context=f"serial {i}")


def test_served_topk_on_the_caps_proves_at_its_own_k_without_a_rescan(vectors, monkeypatch):
    """Each served top-k asks the caps for its own ``k`` (no pad) and proves
    on the floor the probe hands back: no selection rescans, and every
    answer is the dense reference's."""
    eselect_module = importlib.import_module("repro.core.eselect")
    engine = make_engine()
    land_caps(engine, vectors)
    specs = [(vector, {"top_k": (1, 5, 10, 40)[i % 4]}) for i, vector in enumerate(vectors[20:60])]
    want = dense_reference(engine.catalog.get("corpus"), specs)
    rescans = []
    exact_select = eselect_module.exact_select
    monkeypatch.setattr(
        eselect_module, "exact_select",
        lambda *args: (lambda out: rescans.append(out[2]) or out)(exact_select(*args)),
    )
    for i, (vector, terms) in enumerate(specs):
        table, prescreen, probe = run_probe(engine, vector, **terms)
        assert (prescreen, probe) == ("caps", "rows")
        assert_tables_equal(want[i], table, context=f"request {i}")
    assert rescans == [False] * len(specs)


def test_a_failing_build_leaves_selections_dense_and_quiet(vectors, monkeypatch, capsys):
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)

    def broken(rows):
        raise RuntimeError("injected cap build fault")

    monkeypatch.setattr(physical_planner, "build_caps", broken)
    engine = make_engine()
    specs = [(vector, {"top_k": 4} if i % 2 else {"threshold": 0.95})
             for i, vector in enumerate(vectors[:8])]
    got = []
    for vector, terms in specs:
        got.append(run(engine, vector, **terms))
        wait_for_builds()
    assert [prescreen for _, prescreen in got] == ["dense"] * len(specs)
    assert KEY not in engine.sources.entries("caps")
    want = dense_reference(engine.catalog.get("corpus"), specs)
    for i, ((table, _), reference) in enumerate(zip(got, want)):
        assert_tables_equal(reference, table, context=f"request {i}")
    assert hooked == [] and capsys.readouterr().err == ""


def test_a_table_replaced_mid_build_never_serves_the_stale_partition(vectors, monkeypatch):
    started, release = threading.Event(), threading.Event()
    build_caps = physical_planner.build_caps

    def slow(rows):
        started.set()
        assert release.wait(60)
        return build_caps(rows)

    monkeypatch.setattr(physical_planner, "build_caps", slow)
    engine = make_engine()
    old = engine.catalog.get("corpus")
    for vector in vectors[:TRIGGER]:
        run(engine, vector, top_k=3)
    assert started.wait(60)
    new = corpus(seed=5)
    engine.catalog.register("corpus", new, replace=True)
    specs = [(vector, {"top_k": 5}) for vector in vectors[20:20 + 2 * TRIGGER]]
    got = [run(engine, specs[0][0], **specs[0][1])]
    release.set()
    wait_for_builds()
    # The old registration's partition landed; the new one is not served it.
    assert engine.sources.entries("caps")[KEY][0] is old
    assert partition(engine) is None
    got += [run(engine, vector, **terms) for vector, terms in specs[1:TRIGGER]]
    assert [prescreen for _, prescreen in got] == ["dense"] * TRIGGER
    wait_for_builds()  # the new registration's own build, on its own count
    own = partition(engine)
    assert own is not None and engine.sources.entries("caps")[KEY][0] is new
    got += [run(engine, vector, **terms) for vector, terms in specs[TRIGGER:]]
    assert all(prescreen == "caps" for _, prescreen in got[TRIGGER:])
    for i, (reference, (table, _)) in enumerate(zip(dense_reference(new, specs), got)):
        assert_tables_equal(reference, table, context=f"request {i}")


def test_registering_the_same_object_again_keeps_the_partition(vectors):
    engine = make_engine()
    land_caps(engine, vectors)
    part = partition(engine)
    engine.catalog.register("corpus", engine.catalog.get("corpus"), replace=True)
    assert run(engine, vectors[30], top_k=5)[1] == "caps"
    wait_for_builds()
    assert partition(engine) is part


# ---------------------------------------------------------------------------
# The cap-ordered copy: made by the first join, never by a selection
# ---------------------------------------------------------------------------
def join(engine: Engine):
    """A top-5 join of 300 rows on the corpus: a cap-major task."""
    builder = (
        engine.query("probes")
        .ejoin("corpus", left_on="vec", right_on="vec", model="m", top_k=5, strategy="tensor")
        .select(["pid", "id", "similarity"])
    )
    table = builder.execute()
    return table, builder.last_report.join_stats[-1].extra


class CountingRows(np.ndarray):
    """Unit rows that count (and slow down) each gather of all of them: the
    cap-ordered copy."""

    copies: list = []

    def __getitem__(self, index):
        if isinstance(index, np.ndarray) and len(index) == len(self):
            self.copies.append(threading.get_ident())
            time.sleep(0.05)
        return np.asarray(super().__getitem__(index))


def test_served_selections_leave_no_copy_and_the_first_join_makes_it(vectors):
    engine = make_engine()
    land_caps(engine, vectors)
    part = partition(engine)
    for i, vector in enumerate(vectors[TRIGGER:TRIGGER + 12]):
        terms = {"top_k": 5} if i % 2 else {"threshold": 0.99 if i % 4 == 0 else 0.9}
        _, prescreen, probe = run_probe(engine, vector, **terms)
        assert (prescreen, probe) == ("caps", "rows")
    assert part._packed is None
    _, extra = join(engine)
    assert extra["cap_tasks"] >= 1 and extra["probe"] == "caps"
    packed = part._packed
    assert packed is not None and partition(engine) is part
    join(engine)
    assert part._packed is packed


def test_racing_first_joins_copy_once_under_the_build_lock(vectors):
    """More first joins than cores, switching often: one copy, made under
    the source's build lock (a lock-free check-then-copy makes several)."""
    engine = make_engine()
    land_caps(engine, vectors)
    part = partition(engine)
    # The partition's lock is the source's build lock, not one of its own.
    assert part.lock is engine.sources._build_lock((*KEY, "caps"))
    CountingRows.copies = []
    object.__setattr__(part, "unit", part.unit.view(CountingRows))
    got = []
    threads = [threading.Thread(target=lambda: got.append(join(engine))) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(got) == 4 and all(extra["probe"] == "caps" for _, extra in got)
    assert len(CountingRows.copies) == 1
    for i, (table, _) in enumerate(got[1:]):
        assert_tables_equal(got[0][0], table, context=f"racing join {i + 1}")


def test_a_row_major_task_over_its_allowance_declines_as_a_cap_major_one(vectors):
    engine = make_engine()
    land_caps(engine, vectors)
    part = partition(engine)
    unit = engine.normalized_matrix_for(KEY, engine.catalog.get("corpus"))
    budget = 2_048  # the bound state (1,152 bytes) fits; no gathered block or run does
    conditions = [TopKCondition(5), ThresholdCondition(0.9)]
    for condition in conditions:
        capped = select_group(unit, [vectors[40]], [condition], budget_bytes=budget, caps=part)
        dense = select_group(unit, [vectors[40]], [condition], budget_bytes=budget)
        assert (capped.prescreen, capped.probe) == ("dense", "dense")
        for got, want in zip(capped.select(0)[:2], dense.select(0)[:2]):
            assert np.array_equal(got, want)
        free = select_group(unit, [vectors[40]], [condition], caps=part)
        assert (free.prescreen, free.probe) == ("caps", "rows")
    assert part._packed is None
    for condition in conditions:  # the same task forced cap by cap declines too
        for probe in ("rows", "caps"):
            assert cap_join(part, condition, vectors[40:41], np.inf, probe=probe) is not None
            assert cap_join(part, condition, vectors[40:41], budget, probe=probe) is None
