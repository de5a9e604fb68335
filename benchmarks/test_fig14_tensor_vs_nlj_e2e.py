"""Figure 14: tensor join vs NLJ formulation, end-to-end.

Paper setup: 100-D, 48 threads, 10k x 10k .. 1M x 1M; tensor join wins by
almost an order of magnitude across sizes, and the 1M x 1M NLJ times out
(40+ minutes).  Scaled ~10x down; both operators single-process (the
thread-scaling axis is Figure 9's subject).

Expected shape (asserted): both scale ~linearly in |R| x |S|; tensor is
faster at every size, with a growing advantage.
"""

from __future__ import annotations

import pytest

from repro.core import ThresholdCondition, prefetch_nlj, tensor_join
from repro.workloads import unit_vectors

from _report import FigureReport, speedup, time_call
from _smoke import SMOKE, pick

DIM = 100
CONDITION = ThresholdCondition(0.9)
SIZES = pick(
    [(1_000, 1_000), (3_000, 1_000), (3_000, 3_000), (10_000, 3_000),
     (10_000, 10_000)],
    [(200, 200)],
)


@pytest.fixture(scope="module")
def pool():
    return unit_vectors(10_000, DIM, stream="f14/pool")


def test_fig14_report(pool):
    report = FigureReport(
        "fig14",
        "tensor vs NLJ end-to-end, 100-D (paper: up to 1M x 1M)",
        ("size", "tensor_ms", "nlj_ms", "tensor_speedup"),
    )
    gains = []
    for n_left, n_right in SIZES:
        left = pool[:n_left]
        right = pool[:n_right]
        _, t_tensor = time_call(tensor_join, left, right, CONDITION, repeat=2)
        _, t_nlj = time_call(prefetch_nlj, left, right, CONDITION, repeat=2)
        gain = speedup(t_nlj, t_tensor)
        gains.append(gain)
        report.add(f"{n_left}x{n_right}", t_tensor * 1000, t_nlj * 1000, gain)
    report.note("paper reports ~an order of magnitude tensor advantage")
    report.emit()  # persist the artifact before any shape assertion fires
    # Smoke sizes are within scheduler noise; the shape claim needs scale.
    if not SMOKE:
        for (n_left, n_right), gain in zip(SIZES, gains):
            assert gain > 1, (
                f"tensor should beat NLJ at {n_left}x{n_right}, got {gain:.2f}x"
            )
        # The paper's ~10x needs many cores + MKL; a single-core BLAS vs
        # NumPy matvec loop shows a smaller but still clear advantage.
        assert max(gains) >= 2, (
            f"tensor advantage should reach >= 2x, got {max(gains):.1f}x"
        )
