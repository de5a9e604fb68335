"""fig_quant: the int8 access path vs the fp32 tensor join.

Carries the paper's precision ablation (Section V-A-2) past fp16: int8
scalar quantization shrinks the scanned operand 4x, and the quantized
join replaces the exact per-block top-k merge with a cheap approximate
prescreen plus an exact fp32 re-rank of each row's ``k + 32`` best codes,
proved complete by the quantizer's error bound or rescanned at a fixed
floor.  What that buys, and what this figure gates, is bytes scanned: at
an equal (tight, Figure-7-regime) buffer budget the scan reads >= 3.9x
fewer bytes while recall@10 stays >= 0.95 — what a query buys by naming
the ``tensor-int8`` strategy.  It buys no memory (the fp32 rows stay
resident for the re-rank) and no wall-clock in NumPy — the join casts to
fp32 and runs the same GEMM, and the rows its bound cannot prove scan
twice — so the ``speedup`` column is reported, not gated.

The workload mimics real embedding geometry (clustered, low-rank,
decaying spectrum).
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    QuantizedRelation,
    TopKCondition,
    quantized_tensor_join,
    tensor_join,
)
from repro.workloads import embedding_like_vectors

from _report import FigureReport, speedup, time_call
from _smoke import SMOKE, pick

N_LEFT = pick(2_048, 64)
N_RIGHT = pick(65_536, 512)
DIM = pick(384, 32)
K = 10
#: Equal Figure-7 buffer budget for every path: the memory-constrained
#: regime compressed access paths exist for.
BUDGET = pick(512 << 10, 16 << 10)


def _workload() -> tuple[np.ndarray, np.ndarray]:
    data, _ = embedding_like_vectors(
        N_LEFT + N_RIGHT,
        DIM,
        rank=pick(48, 16),
        n_clusters=pick(1024, 32),
        noise=1.0,
        stream="fig_quant",
    )
    return data[:N_LEFT], data[N_LEFT:]


def _recall(got, ref) -> float:
    return len(got.pairs() & ref.pairs()) / max(len(ref.pairs()), 1)


def test_fig_quant_report():
    left, right = _workload()
    condition = TopKCondition(K)
    report = FigureReport(
        "fig_quant",
        f"int8 tensor-join scan vs fp32 at an equal "
        f"{BUDGET >> 10} KiB buffer budget (top-{K}, {DIM}-D)",
        (
            "path",
            "scan_MB",
            "build_s",
            "join_s",
            "speedup",
            "recall_at_10",
        ),
    )
    ref, t_fp32 = time_call(
        tensor_join, left, right, condition, repeat=2,
        buffer_budget_bytes=BUDGET,
    )
    fp32_mb = right.nbytes / 1e6
    report.add("tensor-fp32", fp32_mb, 0.0, t_fp32, 1.0, 1.0)

    store = QuantizedRelation.build(right, "int8")
    result, seconds = time_call(
        quantized_tensor_join, left, store, condition, repeat=2,
        buffer_budget_bytes=BUDGET,
    )
    recall = _recall(result, ref)
    report.add(
        "tensor-int8",
        store.code_bytes / 1e6,
        store.build_seconds,
        seconds,
        speedup(t_fp32, seconds),
        recall,
    )
    report.note(
        f"rows rescanned at a fixed floor: int8 {result.stats.extra['rescanned_rows']} "
        f"of {N_LEFT}; scores of emitted pairs are exact fp32 after re-ranking"
    )
    report.emit()

    if not SMOKE:
        shrink = fp32_mb / (store.code_bytes / 1e6)
        assert shrink >= 3.9, f"int8 scans only {shrink:.1f}x fewer bytes than fp32"
        assert recall >= 0.95, f"int8 recall {recall:.3f} < 0.95"
