"""Shared sweep logic for the scan-vs-probe experiments (Figures 15-17)."""

from __future__ import annotations

import numpy as np

from _report import FigureReport, time_call
from repro.core import JoinCondition, index_join, tensor_join
from repro.index import HNSWIndex


def scan_with_filter(
    probes: np.ndarray,
    base: np.ndarray,
    bitmap: np.ndarray,
    condition: JoinCondition,
):
    """Tensor join with the relational filter applied first (scan path).

    The filter shrinks the base side *before* the similarity compute —
    "full relational filtering" in Table I.  Matched right offsets are
    mapped back to original ids so results are comparable across paths.
    """
    kept = np.nonzero(bitmap)[0]
    result = tensor_join(
        probes, base[kept], condition, assume_normalized=True
    )
    result.right_ids = kept[result.right_ids]
    return result


def scan_prefiltered(
    probes: np.ndarray,
    filtered_base: np.ndarray,
    condition: JoinCondition,
):
    """Tensor join excluding the filter-evaluation cost (paper's
    "Tensor Join (-filter cost)" series)."""
    return tensor_join(probes, filtered_base, condition, assume_normalized=True)


def probe_with_prefilter(
    probes: np.ndarray,
    index: HNSWIndex,
    bitmap: np.ndarray,
    condition: JoinCondition,
):
    """Index join under a pre-filter bitmap (Milvus semantics)."""
    return index_join(probes, index, condition, allowed=bitmap)


def run_sweep(
    figure: str,
    title: str,
    condition: JoinCondition,
    probes: np.ndarray,
    base: np.ndarray,
    lo: HNSWIndex,
    hi: HNSWIndex,
    bitmaps: dict[int, np.ndarray],
) -> tuple[FigureReport, dict[tuple[str, int], float]]:
    """Time all four series across the selectivity sweep."""
    report = FigureReport(
        figure, title, ("selectivity_%", "series", "time_ms", "pairs")
    )
    times: dict[tuple[str, int], float] = {}
    for pct in sorted(bitmaps):
        bitmap = bitmaps[pct]
        filtered = base[bitmap]

        result, seconds = time_call(
            scan_with_filter, probes, base, bitmap, condition
        )
        times[("tensor", pct)] = seconds
        report.add(pct, "tensor-join", seconds * 1000, len(result))

        result, seconds = time_call(
            scan_prefiltered, probes, filtered, condition
        )
        times[("tensor-nofilter", pct)] = seconds
        report.add(pct, "tensor-join(-filter)", seconds * 1000, len(result))

        result, seconds = time_call(
            probe_with_prefilter, probes, lo, bitmap, condition
        )
        times[("index-lo", pct)] = seconds
        report.add(pct, "index-join(Lo)", seconds * 1000, len(result))

        result, seconds = time_call(
            probe_with_prefilter, probes, hi, bitmap, condition
        )
        times[("index-hi", pct)] = seconds
        report.add(pct, "index-join(Hi)", seconds * 1000, len(result))
    return report, times
