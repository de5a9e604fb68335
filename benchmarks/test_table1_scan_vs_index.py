"""Table I: qualitative scan-vs-index comparison, made measurable.

The paper's Table I contrasts the scan (tensor) join and the index join on
accuracy, filtering, cost, and flexibility.  This benchmark quantifies each
cell at our scale:

* accuracy — scan recall is 1.0 by construction; HNSW recall < 1.0,
* filtering — the scan's filter cost is one cheap relational pass; the
  index pays probe-traversal even for tiny allowed sets,
* cost — build time (index-only) vs per-join compute,
* flexibility — the scan accepts a threshold condition natively; the index
  must emulate it via top-k and loses qualifying pairs.
"""

from __future__ import annotations

import time

import numpy as np

from _scan_probe import probe_with_prefilter, scan_with_filter
from repro.core import ThresholdCondition, TopKCondition, index_join, tensor_join
from repro.index import HNSWIndex
from repro.workloads import unit_vectors

from _report import FigureReport, time_call
from _smoke import pick

DIM = 64
N_BASE = pick(4_000, 400)
N_PROBE = pick(100, 20)


def test_table1_report():
    probes = unit_vectors(N_PROBE, DIM, stream="t1/probe")
    base = unit_vectors(N_BASE, DIM, stream="t1/base")

    t0 = time.perf_counter()
    hnsw = HNSWIndex(DIM, m=8, ef_construction=64, ef_search=48, seed=3)
    hnsw.add(base)
    build_s = time.perf_counter() - t0

    # Accuracy: recall of HNSW top-10 vs exact scan top-10.
    k = 10
    exact = tensor_join(probes, base, TopKCondition(k), assume_normalized=True)
    approx = index_join(probes, hnsw, TopKCondition(k))
    recall = len(exact.pairs() & approx.pairs()) / len(exact.pairs())

    # Filtering: 5%-selectivity pre-filter, scan vs index.
    bitmap = np.zeros(N_BASE, dtype=bool)
    bitmap[: N_BASE // 20] = True
    _, scan_s = time_call(
        scan_with_filter, probes, base, bitmap, TopKCondition(k)
    )
    _, index_s = time_call(
        probe_with_prefilter, probes, hnsw, bitmap, TopKCondition(k)
    )

    # Flexibility: native range condition on scan vs top-k emulation.
    threshold = ThresholdCondition(0.35)
    scan_range = tensor_join(probes, base, threshold, assume_normalized=True)
    index_range = index_join(probes, hnsw, threshold, probe_k=32)

    report = FigureReport(
        "table1",
        "scan vs index join properties (measured analogue of paper Table I)",
        ("property", "scan_join", "index_join"),
    )
    report.add("accuracy (recall@10)", 1.0, recall)
    report.add("prefilter join time_ms (5% sel)", scan_s * 1000, index_s * 1000)
    report.add("build time_s", 0.0, build_s)
    report.add(
        "range-condition pairs found", len(scan_range), len(index_range)
    )
    assert recall <= 1.0
    assert len(scan_range) >= len(index_range), (
        "exact scan must find every qualifying pair the index finds"
    )
    report.note("scan: exact, any expression; index: approximate, build-time "
                "distance + mandatory top-k")
    report.emit()
