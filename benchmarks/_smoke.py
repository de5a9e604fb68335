"""Smoke-mode scaling for the figure benchmarks.

Under ``REPRO_BENCH_SMOKE=1`` (``REPRO_BENCH_SMOKE=1 python -m pytest
benchmarks --ignore=benchmarks/e2e -s``) every benchmark module swaps its
paper-scaled sizes for minimal ones via :func:`pick`, and ``_report``
writes to ``bench_results/smoke/``, so CI can sanity-run every scenario
end to end in seconds.  Timings from smoke runs are meaningless —
only the code paths and report plumbing are exercised.
"""

from __future__ import annotations

import os

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def pick(full, smoke):
    """Return the full-scale value, or the smoke-scale one in a smoke run."""
    return smoke if SMOKE else full
