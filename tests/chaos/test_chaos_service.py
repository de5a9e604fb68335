"""Chaos: the service under seeded fault storms stays exact and bounded.

The acceptance contract these tests pin down: with deterministic faults
injected into kernels, workers, and the dispatcher, every result the
service returns without the ``degraded`` flag is bit-identical to
fault-free serial execution; kills and hangs are recovered within the
watchdog's bound instead of hanging the query.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.config import configure, get_config
from repro.errors import PermanentFault
from repro.reliability.faults import FaultInjector, install_injector
from repro.service import QueryService

from _chaos_utils import MODEL, assert_tables_equal, make_engine

pytestmark = pytest.mark.chaos

#: The storm arms every site a non-degraded query can cross.
STORM_SITES = (
    "kernel.rescore",
    "engine.worker",
    "service.dispatch",
)


def _builders(engine, qvecs) -> list:
    """Mixed eselect/ejoin traffic over the shared catalog."""
    builders = []
    for i, q in enumerate(qvecs):
        kind = i % 3
        if kind == 0:
            builders.append(
                engine.query("corpus").esimilar("emb", q, model=MODEL, top_k=3)
            )
        elif kind == 1:
            builders.append(
                engine.query("corpus")
                .esimilar("emb", q, model=MODEL, top_k=5)
                .select(["id", "similarity"])
            )
        else:
            builders.append(
                engine.query("other").ejoin(
                    "corpus",
                    left_on="emb",
                    right_on="emb",
                    model=MODEL,
                    top_k=2,
                )
            )
    return builders


def _drive(service: QueryService, builders, n_clients: int = 8):
    """Run the builders through concurrent sessions; return (results, errors)."""
    results = [None] * len(builders)
    errors: list[BaseException] = []
    barrier = threading.Barrier(n_clients)

    def client(worker: int) -> None:
        try:
            with service.session(f"chaos-{worker}") as session:
                barrier.wait()
                for i in range(worker, len(builders), n_clients):
                    results[i] = session.execute(builders[i])
        except BaseException as exc:  # noqa: BLE001 - collected for assert
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(w,), daemon=True)
        for w in range(n_clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    assert not any(t.is_alive() for t in threads), "a chaos client hung"
    return results, errors


def test_transient_storm_results_bit_identical(query_vectors):
    """1%-class transient fault storm: full availability, exact results."""
    serial = [b.execute() for b in _builders(make_engine(), query_vectors)]

    engine = make_engine()
    service = QueryService(engine, coalesce=True)
    injector = install_injector(
        FaultInjector(
            0.05, seed=1234, sites=STORM_SITES, kinds=("transient",)
        )
    )
    builders = _builders(engine, query_vectors)
    results, errors = _drive(service, builders)

    assert errors == []
    injected = injector.stats.snapshot()["injected"]
    assert injected > 0, "storm never fired"
    for i, (got, want) in enumerate(zip(results, serial)):
        assert_tables_equal(got, want, context=f"query {i}")
    health = service.health()
    # Nothing failed, so every injected fault was answered by a retry.
    assert health.retries["retries"] >= injected
    assert health.faults["injected"] == injected


def test_latency_spikes_only_slow_never_corrupt(query_vectors):
    serial = [b.execute() for b in _builders(make_engine(), query_vectors[:12])]
    engine = make_engine()
    service = QueryService(engine, coalesce=True)
    injector = install_injector(
        FaultInjector(
            0.2,
            seed=7,
            sites=STORM_SITES,
            kinds=("latency",),
            latency_s=0.002,
        )
    )
    results, errors = _drive(service, _builders(engine, query_vectors[:12]))
    assert errors == []
    assert injector.stats.snapshot()["by_kind"].get("latency", 0) > 0
    for i, (got, want) in enumerate(zip(results, serial)):
        assert_tables_equal(got, want, context=f"query {i}")


@pytest.mark.usefixtures("schedule_every_task")
def test_worker_kills_recovered_bit_identically(query_vectors):
    """Abrupt worker deaths: watchdog/sweep recovery, results exact."""
    configure(default_threads=4, default_morsel_rows=32)
    try:
        serial = [
            b.execute() for b in _builders(make_engine(), query_vectors[:12])
        ]
        engine = make_engine()
        service = QueryService(engine, coalesce=True)
        injector = install_injector(
            FaultInjector(
                0.3,
                seed=2,
                sites=("engine.worker",),
                kinds=("transient", "kill"),
            )
        )
        results, errors = _drive(service, _builders(engine, query_vectors[:12]))
        assert errors == []
        assert injector.stats.snapshot()["by_kind"].get("kill", 0) >= 1
        for i, (got, want) in enumerate(zip(results, serial)):
            assert_tables_equal(got, want, context=f"query {i}")
    finally:
        configure(default_threads=None, default_morsel_rows=1024)


@pytest.mark.usefixtures("schedule_every_task")
def test_injected_hangs_bounded_by_watchdog(query_vectors):
    """A hang far longer than any query must not set the pace: the
    watchdog stalls the hung worker out and re-runs its morsel."""
    config = get_config()
    saved = (config.default_threads, config.default_morsel_rows)
    configure(default_threads=4, default_morsel_rows=16, watchdog_stall_s=0.05)
    try:
        serial = [
            b.execute() for b in _builders(make_engine(), query_vectors[:6])
        ]
        engine = make_engine()
        service = QueryService(engine, coalesce=False)
        injector = install_injector(
            FaultInjector(
                0.3,
                seed=21,
                sites=("engine.worker",),
                kinds=("hang",),
                hang_s=30.0,
                max_faults=2,
            )
        )
        start = time.perf_counter()
        results, errors = _drive(
            service, _builders(engine, query_vectors[:6]), n_clients=3
        )
        elapsed = time.perf_counter() - start
        assert errors == []
        assert injector.stats.snapshot()["by_kind"].get("hang", 0) >= 1
        assert elapsed < 15.0, f"queries hung for {elapsed:.1f}s"
        assert engine.executor.stats.watchdog_stalls >= 1
        for i, (got, want) in enumerate(zip(results, serial)):
            assert_tables_equal(got, want, context=f"query {i}")
    finally:
        configure(
            default_threads=saved[0],
            default_morsel_rows=saved[1],
            watchdog_stall_s=5.0,
        )


def test_permanent_faults_fail_fast_and_cleanly(query_vectors):
    """Permanent faults are not retried: the query fails immediately,
    later queries are unaffected, and counters stay consistent."""
    engine = make_engine()
    service = QueryService(engine, coalesce=False)
    install_injector(
        FaultInjector(
            1.0,
            seed=5,
            sites=("service.dispatch",),
            kinds=("permanent",),
            max_faults=2,
        )
    )
    builders = _builders(engine, query_vectors[:6])
    with service.session("perm") as session:
        failures = 0
        results = []
        for b in builders:
            try:
                results.append(session.execute(b))
            except PermanentFault:
                failures += 1
        assert failures == 2
        assert len(results) == 4
    snapshot = service.stats_snapshot()
    assert snapshot["service"]["failed"] == 2
    assert snapshot["service"]["completed"] == 4


def test_health_snapshot_reports_ok_when_quiet(query_vectors):
    engine = make_engine()
    service = QueryService(engine, coalesce=False)
    with service.session("quiet") as session:
        session.execute(_builders(engine, query_vectors[:1])[0])
    health = service.health()
    assert health.status == "ok"
    assert health.open_breakers == 0
    assert health.faults == {}
    assert health.service["completed"] == 1
    as_dict = health.as_dict()
    assert set(as_dict) == {
        "status",
        "breakers",
        "open_breakers",
        "retries",
        "watchdog",
        "faults",
        "qos",
        "service",
        "shard",
    }
    assert as_dict["shard"] == {}  # no shard pool configured
