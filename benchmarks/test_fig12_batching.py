"""Figure 12: impact of vector batching on the tensor formulation.

Paper setup: same grid as Figure 11; "Tensor-Fully-Batched" runs one GEMM
over both batched relations, "Tensor-Non-Batched" keeps one relation
batched while streaming the other vector-by-vector through the BLAS kernel
(repeated data movement).

Expected shape (asserted): negligible difference at tiny inputs, and a
clear fully-batched win as the input grows.
"""

from __future__ import annotations

import math

from repro.core import TopKCondition, tensor_join, tensor_join_non_batched
from repro.workloads import unit_vectors

from _report import FigureReport, time_call
from _smoke import pick

OPS_CLUSTERS = pick([25_600, 2_560_000, 25_600_000], [25_600])
DIMS = pick([1, 4, 16, 64, 256], [4, 16])
CONDITION = TopKCondition(1)


def _make(total_fp32: int, dim: int):
    n = max(2, int(math.isqrt(total_fp32 // dim)))
    left = unit_vectors(n, dim, stream=f"f12/l/{total_fp32}/{dim}")
    right = unit_vectors(n, dim, stream=f"f12/r/{total_fp32}/{dim}")
    return left, right


def test_fig12_report():
    report = FigureReport(
        "fig12",
        "fully-batched vs non-batched tensor join (ns per FP32 element)",
        ("fp32_ops", "dim", "fully_batched", "non_batched", "ratio"),
    )
    ratios: dict[int, list[float]] = {}
    for total in OPS_CLUSTERS:
        for dim in DIMS:
            left, right = _make(total, dim)
            n = left.shape[0]
            elements = n * n * dim
            _, t_full = time_call(tensor_join, left, right, CONDITION)
            _, t_non = time_call(
                tensor_join_non_batched, left, right, CONDITION
            )
            ratio = t_non / t_full
            ratios.setdefault(total, []).append(ratio)
            report.add(
                total,
                dim,
                t_full / elements * 1e9,
                t_non / elements * 1e9,
                ratio,
            )
    # Batching should matter more for the largest cluster than the smallest.
    big_avg = sum(ratios[OPS_CLUSTERS[-1]]) / len(ratios[OPS_CLUSTERS[-1]])
    assert big_avg > 1.0, (
        f"fully-batched should win on the largest inputs (avg ratio {big_avg:.2f})"
    )
    report.note(
        "non-batched streams one input vector-at-a-time through BLAS; "
        "ratio > 1 means fully-batched wins"
    )
    report.emit()
