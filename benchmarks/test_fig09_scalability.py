"""Figure 9: optimized-NLJ thread scalability.

Paper setup: 10k x 10k, 100-D, threads 1..48 (hyperthreaded, affinitized),
SIMD vs NO-SIMD.  Scaled here to 4k x 4k with threads 1..cpu_count; workers
run NumPy kernels that release the GIL, so the speedup is real parallelism.
The NO-SIMD series uses the scalar kernel at a reduced size (it is ~100x
slower) purely to show its flat, compute-starved profile.
"""

from __future__ import annotations

import os

import pytest

from repro.core import ThresholdCondition, prefetch_nlj
from repro.engine import ExecutionEngine
from repro.vector import Kernel
from repro.workloads import unit_vectors

from _report import FigureReport, time_call
from _smoke import pick

DIM = 100
N = pick(4000, 200)
N_SCALAR = pick(400, 40)
CONDITION = ThresholdCondition(0.9)


def _threads() -> list[int]:
    cpus = os.cpu_count() or 1
    steps = [1, 2, 4, 8, 16, 32, 48]
    return [t for t in steps if t <= max(cpus, 2)]


@pytest.fixture(scope="module")
def data():
    left = unit_vectors(N, DIM, stream="f9/left")
    right = unit_vectors(N, DIM, stream="f9/right")
    return left, right


def test_fig09_report(data):
    left, right = data
    report = FigureReport(
        "fig09",
        "optimized NLJ scalability (scaled: 4k x 4k, 100-D)",
        ("threads", "kernel", "time_ms", "speedup_vs_1t"),
    )
    baseline = {}
    for kernel, nl in ((Kernel.VECTORIZED, N), (Kernel.SCALAR, N_SCALAR)):
        lv, rv = left[:nl], right[:nl]
        for t in _threads():
            _, seconds = time_call(
                prefetch_nlj,
                lv,
                rv,
                CONDITION,
                kernel=kernel,
                engine=ExecutionEngine(n_threads=t),
            )
            baseline.setdefault(kernel, seconds)
            report.add(
                t, kernel.value, seconds * 1000, baseline[kernel] / seconds
            )
    report.note(f"scalar series uses {N_SCALAR}x{N_SCALAR} (pure-Python kernel)")
    report.emit()
