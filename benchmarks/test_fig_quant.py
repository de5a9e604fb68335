"""fig_quant: quantized access paths vs the fp32 tensor join.

Carries the paper's precision ablation (Section V-A-2) past fp16: int8
scalar quantization and product quantization shrink the scanned operand
4x / 192x, and the quantized joins replace the exact per-block top-k
merge with a cheap approximate prescreen plus an exact fp32 re-rank of a
candidate multiple.  What that buys, and what this figure gates, is
footprint: at an equal (tight, Figure-7-regime) buffer budget the scan
reads >= 3.9x (int8) / >= 30x (PQ) fewer bytes while re-ranked recall@10
stays >= 0.95 — the accuracy/footprint axis the optimizer reasons about
via ``REPRO_PRECISION``.  It does not buy wall-clock in NumPy — the int8
join casts to fp32 and runs the same GEMM, and since the fp32 join
stopped paying a full-width ``argpartition`` both quantized joins
measure 0.5-0.85x of it on a 2-core box — so the ``speedup`` column is
reported, not gated.

The workload mimics real embedding geometry (clustered, low-rank,
decaying spectrum — the structure PQ exploits; an isotropic cloud is
PQ's worst case and nobody quantizes one in practice).
"""

from __future__ import annotations

import numpy as np

from repro.bench import FigureReport, speedup, time_call
from repro.core import (
    QuantizedRelation,
    TopKCondition,
    choose_scan_precision,
    quantized_tensor_join,
    tensor_join,
)
from repro.workloads import embedding_like_vectors

from _smoke import SMOKE, pick

N_LEFT = pick(2_048, 64)
N_RIGHT = pick(65_536, 512)
DIM = pick(384, 32)
K = 10
#: Equal Figure-7 buffer budget for every path: the memory-constrained
#: regime compressed access paths exist for.
BUDGET = pick(512 << 10, 16 << 10)
INT8_MULTIPLE = 4
PQ_MULTIPLE = 12
PQ_PARAMS = dict(m=8, ks=pick(256, 16))


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
        f"Quantized tensor-join scans vs fp32 at an equal "
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

    measured: dict[str, tuple[float, float]] = {}
    for path, method, multiple, params in (
        ("tensor-int8", "int8", INT8_MULTIPLE, {}),
        ("tensor-pq", "pq", PQ_MULTIPLE, PQ_PARAMS),
    ):
        store = QuantizedRelation.build(right, method, **params)
        result, seconds = time_call(
            quantized_tensor_join, left, store, condition, repeat=2,
            rerank_multiple=multiple, buffer_budget_bytes=BUDGET,
        )
        recall = _recall(result, ref)
        report.add(
            path,
            store.code_bytes / 1e6,
            store.build_seconds,
            seconds,
            speedup(t_fp32, seconds),
            recall,
        )
        measured[method] = (fp32_mb / (store.code_bytes / 1e6), recall)

    decision = choose_scan_precision(
        N_LEFT, N_RIGHT, K, DIM, precision="int8"
    )
    report.note(
        f"optimizer under REPRO_PRECISION=int8 picks: {decision.precision} "
        f"(fp32 cost {decision.fp32_cost:.3g}, quantized "
        f"{decision.quantized_cost:.3g}, est. recall "
        f"{decision.estimated_recall:.3f})"
    )
    report.note(
        f"candidate multiples: int8 x{INT8_MULTIPLE}, pq x{PQ_MULTIPLE}; "
        "scores of emitted pairs are exact fp32 after re-ranking"
    )
    report.emit()

    assert decision.precision == "int8"
    if not SMOKE:
        fewer_bytes = {"int8": 3.9, "pq": 30.0}
        for method, (shrink, recall) in measured.items():
            assert shrink >= fewer_bytes[method], (
                f"{method} scans only {shrink:.1f}x fewer bytes than fp32"
            )
            assert recall >= 0.95, f"{method} recall {recall:.3f} < 0.95"
