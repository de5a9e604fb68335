"""Figure 11: per-element time, vectorized NLJ vs tensor formulation.

Paper setup: total #FP32 processed in {25600, 2.56e6, 2.56e8}, vector
dimensionality in {1, 4, 16, 64, 256}; equal-sized input relations with
n = sqrt(#FP32 / dim) tuples each; metric is time per FP32 element.
Scaled here: the largest cluster is 2.56e7 (one decade down).

Expected shape (asserted): for the large cluster at dim >= 16, the tensor
(GEMM) formulation is faster per element than the row-at-a-time NLJ; with
only a handful of tuples (small cluster, high dim) the tensor setup
overhead makes it comparable or slower — the paper's "pays off in larger
inputs" observation.
"""

from __future__ import annotations

import math

from repro.bench import FigureReport, time_call
from repro.core import TopKCondition, prefetch_nlj, tensor_join
from repro.workloads import unit_vectors

from _smoke import SMOKE, pick

OPS_CLUSTERS = pick([25_600, 2_560_000, 25_600_000], [25_600])
DIMS = pick([1, 4, 16, 64, 256], [4, 16])
CONDITION = TopKCondition(1)


def _sides(total_fp32: int, dim: int) -> int:
    return max(2, int(math.isqrt(total_fp32 // dim)))


def _make(total_fp32: int, dim: int):
    n = _sides(total_fp32, dim)
    left = unit_vectors(n, dim, stream=f"f11/l/{total_fp32}/{dim}")
    right = unit_vectors(n, dim, stream=f"f11/r/{total_fp32}/{dim}")
    return left, right


def test_fig11_report():
    report = FigureReport(
        "fig11",
        "per-FP32-element time: vectorized NLJ vs tensor (largest cluster "
        "scaled 2.56e8 -> 2.56e7)",
        ("fp32_ops", "dim", "n_per_side", "strategy", "ns_per_element"),
    )
    per_element: dict[tuple, float] = {}
    for total in OPS_CLUSTERS:
        for dim in DIMS:
            left, right = _make(total, dim)
            n = left.shape[0]
            elements = n * n * dim
            for name, fn in (("nlj", prefetch_nlj), ("tensor", tensor_join)):
                _, seconds = time_call(fn, left, right, CONDITION)
                per_element[(name, total, dim)] = seconds / elements * 1e9
                report.add(total, dim, n, name, seconds / elements * 1e9)
    # Smoke mode's single tiny cluster cannot show the crossover.
    if not SMOKE:
        big = OPS_CLUSTERS[-1]
        for dim in (16, 64, 256):
            assert per_element[("tensor", big, dim)] < per_element[("nlj", big, dim)], (
                f"tensor should win per-element at {big} ops, dim {dim}"
            )
    report.note("tensor pays off with enough tuples to batch (paper Fig 11)")
    report.emit()
