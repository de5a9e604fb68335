"""Figure 10: optimized NLJ across input-size mixes and loop orders.

Paper setup: 100-D, 48 threads, |R| x |S| from 10k x 10k to 1M x 10k,
grouped by total operation count (1e8 / 1e9 / 1e10), showing (a) linear
scaling in #operations and (b) up to ~35% effect from which relation is
the inner loop.  Scaled here ~100x: clusters of 1e6 / 1e7 / 1e8 pairwise
operations, single-process vectorized NLJ.
"""

from __future__ import annotations

import pytest

from repro.core import ThresholdCondition, prefetch_nlj
from repro.workloads import unit_vectors

from _report import FigureReport, time_call
from _smoke import SMOKE, pick

DIM = 100
CONDITION = ThresholdCondition(0.9)

#: (n_left, n_right) grouped by op count |R|*|S|.
SIZE_MIXES = pick(
    [
        (1_000, 1_000),    # 1e6 ops
        (10_000, 100),     # 1e6 ops
        (100, 10_000),     # 1e6 ops
        (10_000, 1_000),   # 1e7 ops
        (1_000, 10_000),   # 1e7 ops
        (10_000, 10_000),  # 1e8 ops
        (100_000, 1_000),  # 1e8 ops
        (1_000, 100_000),  # 1e8 ops
    ],
    [(100, 100), (200, 50)],
)


@pytest.fixture(scope="module")
def pool():
    big = unit_vectors(max(max(mix) for mix in SIZE_MIXES), DIM, stream="f10/pool")
    return big


def test_fig10_report(pool):
    report = FigureReport(
        "fig10",
        "optimized NLJ, varying input sizes (scaled ~100x from paper)",
        ("size", "ops", "time_ms", "ns_per_op"),
    )
    measured: dict[tuple[int, int], float] = {}
    for n_left, n_right in SIZE_MIXES:
        left = pool[:n_left]
        right = pool[-n_right:]
        _, seconds = time_call(prefetch_nlj, left, right, CONDITION)
        measured[(n_left, n_right)] = seconds
        ops = n_left * n_right
        report.add(
            f"{n_left}x{n_right}", ops, seconds * 1000, seconds / ops * 1e9
        )
    # Linear-in-operations shape: the 1e8 clusters should be ~10x the 1e7
    # ones (we assert a loose 3x monotonicity to stay timing-robust).
    # Smoke mode runs toy sizes where the shape claim is meaningless.
    if not SMOKE:
        t_1e6 = measured[(1_000, 1_000)]
        t_1e7 = measured[(10_000, 1_000)]
        t_1e8 = measured[(10_000, 10_000)]
        assert t_1e7 > t_1e6, "1e7-op join should cost more than 1e6"
        assert t_1e8 > 3 * t_1e7, "1e8-op join should cost several times 1e7"
    report.note(
        "loop-order effect: rows with the same op count differ only in "
        "which relation is outer (paper observes up to ~35%)"
    )
    report.emit()
