"""Fault injector: determinism, site/kind filtering, cap, install hooks."""

from __future__ import annotations

import pytest

from repro.errors import PermanentFault, TransientFault, WorkerKilledFault
from repro.reliability.faults import (
    KINDS,
    FaultInjector,
    active_injector,
    clear_injector,
    install_injector,
    maybe_inject,
)


def schedule(injector: FaultInjector, site: str, n: int) -> list:
    return [injector.decide(site) for _ in range(n)]


def test_schedule_is_deterministic_per_seed():
    a = FaultInjector(0.2, seed=11, kinds=KINDS)
    b = FaultInjector(0.2, seed=11, kinds=KINDS)
    assert schedule(a, "kernel.gemm", 500) == schedule(b, "kernel.gemm", 500)


def test_schedule_differs_across_seeds_and_sites():
    a = FaultInjector(0.2, seed=11, kinds=KINDS)
    b = FaultInjector(0.2, seed=12, kinds=KINDS)
    assert schedule(a, "kernel.gemm", 500) != schedule(b, "kernel.gemm", 500)
    c = FaultInjector(0.2, seed=11, kinds=KINDS)
    d = FaultInjector(0.2, seed=11, kinds=KINDS)
    assert schedule(c, "kernel.gemm", 500) != schedule(d, "index.probe", 500)


def test_rate_zero_and_one():
    assert schedule(FaultInjector(0.0), "engine.worker", 200) == [None] * 200
    all_faults = schedule(FaultInjector(1.0), "engine.worker", 200)
    assert None not in all_faults


def test_rate_roughly_respected():
    injector = FaultInjector(0.1, seed=5)
    injected = sum(
        1 for k in schedule(injector, "engine.worker", 5000) if k is not None
    )
    assert 300 <= injected <= 700  # 10% +- generous slack


def test_site_filter():
    injector = FaultInjector(1.0, sites=["kernel.gemm"])
    assert injector.decide("index.probe") is None
    assert injector.decide("kernel.gemm") is not None


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown fault kinds"):
        FaultInjector(0.5, kinds=("transient", "meteor"))


def test_kind_selection_stays_within_configured():
    injector = FaultInjector(1.0, kinds=("transient", "permanent"), seed=3)
    kinds = set(schedule(injector, "quant.build", 200))
    assert kinds <= {"transient", "permanent"}
    assert "transient" in kinds and "permanent" in kinds


def test_max_faults_cap():
    injector = FaultInjector(1.0, max_faults=5)
    kinds = schedule(injector, "service.dispatch", 50)
    assert sum(1 for k in kinds if k is not None) == 5
    assert injector.stats.snapshot()["injected"] == 5


def test_hit_raises_typed_faults():
    with pytest.raises(TransientFault):
        FaultInjector(1.0, kinds=("transient",)).hit("engine.worker")
    with pytest.raises(PermanentFault):
        FaultInjector(1.0, kinds=("permanent",)).hit("engine.worker")
    with pytest.raises(WorkerKilledFault):
        FaultInjector(1.0, kinds=("kill",)).hit("engine.worker")


def test_latency_kind_sleeps_with_injected_clock():
    slept = []
    injector = FaultInjector(
        1.0, kinds=("latency",), latency_s=0.25, sleep=slept.append
    )
    injector.hit("kernel.gemm")
    assert slept == [0.25]


def test_stats_by_site_and_kind():
    injector = FaultInjector(1.0, kinds=("transient",))
    for _ in range(3):
        with pytest.raises(TransientFault):
            injector.hit("index.probe")
    snap = injector.stats.snapshot()
    assert snap["checks"] == 3
    assert snap["by_site"] == {"index.probe": 3}
    assert snap["by_kind"] == {"transient": 3}


def test_install_and_clear_hooks():
    previous = active_injector()
    clear_injector()
    try:
        assert active_injector() is None
        maybe_inject("engine.worker")  # no injector: free no-op
        injector = FaultInjector(1.0, kinds=("transient",))
        install_injector(injector)
        assert active_injector() is injector
        with pytest.raises(TransientFault):
            maybe_inject("engine.worker")
        clear_injector()
        assert active_injector() is None
        maybe_inject("engine.worker")
    finally:
        install_injector(previous)
