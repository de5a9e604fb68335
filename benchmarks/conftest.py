"""Shared fixtures for figure benchmarks.

Scale note: the paper's inputs (up to 1M x 1M tuples, 48 hardware threads,
C++/MKL) are scaled down ~100x so a Python interpreter reproduces the
*shape* of every figure in minutes.  Scale factors per experiment are
documented in each file's docstring and in README "Benchmarks".
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.index import HNSWIndex
from repro.workloads import unit_vectors

from _smoke import pick

# Figures 15-17 scan-vs-probe setup (paper: 10k x 1M, 100-D, Milvus HNSW).
SCAN_PROBE_DIM = pick(256, 32)
SCAN_PROBE_BASE = pick(10_000, 500)
SCAN_PROBE_QUERIES = pick(200, 20)
#: Selectivity sweep in percent (paper sweeps 0..100).
SELECTIVITIES = (1, 5, 10, 20, 40, 60, 80, 100)


@pytest.fixture(scope="session")
def scan_probe_data() -> tuple[np.ndarray, np.ndarray]:
    """(probe vectors, base vectors) for Figures 15-17."""
    base = unit_vectors(SCAN_PROBE_BASE, SCAN_PROBE_DIM, stream="f15/base")
    probes = unit_vectors(SCAN_PROBE_QUERIES, SCAN_PROBE_DIM, stream="f15/probe")
    return probes, base


@pytest.fixture(scope="session")
def hnsw_lo(scan_probe_data) -> HNSWIndex:
    """Lower-recall/faster HNSW (paper Lo: M=32/efC=256, scaled /4)."""
    _, base = scan_probe_data
    index = HNSWIndex(
        SCAN_PROBE_DIM, m=8, ef_construction=64, ef_search=32, seed=7
    )
    index.add(base)
    return index


@pytest.fixture(scope="session")
def hnsw_hi(scan_probe_data) -> HNSWIndex:
    """Higher-recall/slower HNSW (paper Hi: M=64/efC=512, scaled /4)."""
    _, base = scan_probe_data
    index = HNSWIndex(
        SCAN_PROBE_DIM, m=16, ef_construction=128, ef_search=96, seed=7
    )
    index.add(base)
    return index


@pytest.fixture(scope="session")
def selectivity_bitmaps(scan_probe_data) -> dict[int, np.ndarray]:
    """Pre-filter bitmaps: percent -> boolean bitmap over base ids.

    Uses a shuffled exact-fraction construction so each percentage selects
    exactly that share of rows.
    """
    _, base = scan_probe_data
    n = len(base)
    rng = np.random.default_rng(1234)
    rank = rng.permutation(n)  # rank[i] = selectivity rank of row i
    bitmaps = {}
    for pct in SELECTIVITIES:
        bitmaps[pct] = rank < int(n * pct / 100)
    return bitmaps
