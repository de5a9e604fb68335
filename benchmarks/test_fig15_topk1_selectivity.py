"""Figure 15: top-K=1 vector join, scan vs index, across selectivity.

Paper setup: 10k probes x 1M base with a relational filter; HNSW Lo/Hi in
Milvus; index wins above ~20-30% selectivity (its best case), scan wins
below.  Scaled here to 200 probes x 10k base, 256-D (dim raised so the
BLAS-backed scan does not trivially dominate the pure-Python probe; see
DESIGN.md substitutions).

Expected shape (asserted): scan wins at low selectivity; the Lo index's
*relative* position improves monotonically-ish toward high selectivity,
crossing or approaching the scan (crossover location is scale-dependent).
"""

from __future__ import annotations

from _scan_probe import run_sweep
from repro.core import TopKCondition

CONDITION = TopKCondition(1)


def test_fig15_report(scan_probe_data, hnsw_lo, hnsw_hi, selectivity_bitmaps):
    probes, base = scan_probe_data
    report, times = run_sweep(
        "fig15",
        "top-K=1 join, scan vs index (scaled: 200 x 10k, 256-D)",
        CONDITION,
        probes,
        base,
        hnsw_lo,
        hnsw_hi,
        selectivity_bitmaps,
    )
    # Scan dominates at low selectivity (both index configs pay traversal).
    assert times[("tensor", 1)] < times[("index-lo", 1)]
    assert times[("tensor", 1)] < times[("index-hi", 1)]
    # The index's relative cost improves from low to high selectivity.
    low_ratio = times[("index-lo", 1)] / times[("tensor", 1)]
    high_ratio = times[("index-lo", 100)] / times[("tensor", 100)]
    assert high_ratio < low_ratio, (
        f"index should close the gap at high selectivity "
        f"(ratios {low_ratio:.1f} -> {high_ratio:.1f})"
    )
    report.note(
        "paper crossover at 20-30% selectivity (1M base); location is "
        "scale-dependent, shape (scan wins low, index improves high) holds"
    )
    report.emit()
