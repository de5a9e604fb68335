"""Figure 13: mini-batch size vs memory requirement and execution time.

Paper setup: 100k x 100k, 100-D tensor join; the "No Batch" case holds the
full |R| x |S| FP32 intermediate (40 GB at paper scale); mini-batches of
decreasing size trade a small relative slowdown for a large reduction in
required RAM.  Scaled here to 6k x 6k (full intermediate 144 MB).

Expected shape (asserted): required RAM shrinks quadratically with the
batch edge while the slowdown stays within a small factor.
"""

from __future__ import annotations

import pytest

from repro.bench import FigureReport, time_call
from repro.core import ThresholdCondition, tensor_join
from repro.workloads import unit_vectors

from _smoke import SMOKE, pick

DIM = 100
N = pick(6_000, 300)
CONDITION = ThresholdCondition(0.9)
#: (batch_left, batch_right) mini-batch shapes.  No Batch pins both edges
#: to the input size: left to itself the join derives a cache-sized block.
NO_BATCH = (N, N)
BATCHES = pick(
    [NO_BATCH, (3_000, 3_000), (2_000, 2_000), (1_000, 1_000), (500, 500)],
    [NO_BATCH, (100, 100)],
)


def _label(batch: tuple[int, int]) -> str:
    return "nobatch" if batch == NO_BATCH else f"{batch[0]}x{batch[1]}"


@pytest.fixture(scope="module")
def data():
    left = unit_vectors(N, DIM, stream="f13/l")
    right = unit_vectors(N, DIM, stream="f13/r")
    return left, right


def test_fig13_report(data):
    left, right = data
    report = FigureReport(
        "fig13",
        "mini-batch impact, 6k x 6k 100-D (paper: 100k x 100k)",
        ("batch", "time_ms", "buffer_MB", "rel_slowdown", "ram_reduction"),
    )
    base_time = None
    base_buffer = None
    slowdowns = []
    reductions = []
    for batch in BATCHES:
        result, seconds = time_call(
            tensor_join, left, right, CONDITION,
            batch_left=batch[0], batch_right=batch[1],
        )
        buffer_mb = result.stats.peak_buffer_elements * 4 / 1e6
        if base_time is None:
            base_time, base_buffer = seconds, buffer_mb
        slowdown = seconds / base_time
        reduction = base_buffer / buffer_mb
        slowdowns.append(slowdown)
        reductions.append(reduction)
        report.add(_label(batch), seconds * 1000, buffer_mb, slowdown, reduction)
    # RAM shrinks by orders of magnitude; slowdown stays within a few x.
    # Smoke sizes are too small for the orders-of-magnitude claim.
    if not SMOKE:
        assert reductions[-1] >= 100, (
            f"smallest batch should cut RAM >= 100x, got {reductions[-1]:.1f}x"
        )
        assert max(slowdowns) < 10, (
            f"mini-batching slowdown should stay within 10x, "
            f"got {max(slowdowns):.1f}x"
        )
    report.note("paper: negligible slowdown for orders-of-magnitude RAM savings")
    report.emit()
