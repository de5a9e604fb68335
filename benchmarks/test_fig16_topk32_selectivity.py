"""Figure 16: top-K=32 vector join, scan vs index, across selectivity.

Paper setup: as Figure 15 but k=32; the deeper retrieval makes index
probes much more expensive, shifting the crossover to ~80% for the Lo
index and making the Hi index always slower than the scan.

Expected shape (asserted): the scan beats the Hi index at *every*
selectivity; the Lo index is slower than it was for k=1 relative to scan.
"""

from __future__ import annotations

from _scan_probe import run_sweep
from repro.core import TopKCondition

CONDITION = TopKCondition(32)


def test_fig16_report(scan_probe_data, hnsw_lo, hnsw_hi, selectivity_bitmaps):
    probes, base = scan_probe_data
    report, times = run_sweep(
        "fig16",
        "top-K=32 join, scan vs index (scaled: 200 x 10k, 256-D)",
        CONDITION,
        probes,
        base,
        hnsw_lo,
        hnsw_hi,
        selectivity_bitmaps,
    )
    # Hi index: higher-accuracy construction makes probes expensive enough
    # that the scan wins across the sweep (paper: "impractical by being
    # always slower for high-accuracy index").
    for pct in selectivity_bitmaps:
        assert times[("tensor", pct)] < times[("index-hi", pct)], (
            f"scan should beat Hi index at {pct}% for top-32"
        )
    report.note("paper: Lo crossover shifts to ~80%; Hi never wins at k=32")
    report.emit()
