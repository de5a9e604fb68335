"""Ablation: half-precision operands for the tensor join (Section V-A-2).

The paper motivates FP16/AMX/HBM as the hardware direction for vector-
relational processing: halving operand bytes doubles the effective cache
and memory bandwidth for high-dimensional embeddings.  NumPy lacks a fast
FP16 GEMM, so the *memory* effect is reproduced exactly (operand bytes are
measured) while compute runs FP32-accumulated; the accuracy cost of FP16
quantization is measured as top-1 agreement against the FP32 join.
"""

from __future__ import annotations

import pytest

from repro.core import (
    TopKCondition,
    precision_error_bound,
    tensor_join,
    tensor_join_fp16,
)
from repro.workloads import unit_vectors

from _report import FigureReport, time_call
from _smoke import pick

DIM = 256
SIZES = pick([(500, 5_000), (1_000, 10_000)], [(50, 500)])
CONDITION = TopKCondition(1)


def test_fp16_report():
    report = FigureReport(
        "ablation_fp16",
        "FP16 vs FP32 tensor-join operands: memory halves, top-1 agreement "
        "stays near-perfect",
        ("size", "fp32_MB", "fp16_MB", "top1_agreement_%", "fp16_ms", "fp32_ms"),
    )
    for n_left, n_right in SIZES:
        left = unit_vectors(n_left, DIM, stream=f"fp16/l/{n_left}")
        right = unit_vectors(n_right, DIM, stream=f"fp16/r/{n_right}")
        full, t32 = time_call(tensor_join, left, right, CONDITION, repeat=2)
        half, t16 = time_call(tensor_join_fp16, left, right, CONDITION, repeat=2)
        fp32_mb = (left.nbytes + right.nbytes) / 1e6
        fp16_mb = half.stats.extra["operand_bytes"] / 1e6
        agreement = len(full.pairs() & half.pairs()) / len(full.pairs()) * 100
        report.add(
            f"{n_left}x{n_right}", fp32_mb, fp16_mb, agreement,
            t16 * 1000, t32 * 1000,
        )
        assert fp16_mb == pytest.approx(fp32_mb / 2, rel=0.01)
        # FP16 error bound is tiny relative to random-vector score gaps.
        assert agreement >= 95.0, (
            f"FP16 top-1 agreement too low: {agreement:.1f}%"
        )
    report.note(
        f"quantization error bound at {DIM}-D: "
        f"{precision_error_bound(DIM):.4f} cosine units"
    )
    report.emit()
