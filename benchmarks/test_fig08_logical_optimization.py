"""Figure 8: impact of logical (prefetch) and physical (SIMD) optimization.

Paper setup: naive vs prefetch E-NLJ, with and without SIMD, over 100-D
vectors at 1k x 1k .. 10k x 10k (48 threads).  Scaled here to
100x100 .. 200x200 single-threaded; "SIMD" is the NumPy-vectorized kernel,
"NO-SIMD" the pure-Python scalar kernel (see DESIGN.md substitutions).

Expected shape (asserted): prefetch beats naive by a large factor at every
size (quadratic vs linear model cost); SIMD helps the prefetch formulation
but cannot rescue the naive one.
"""

from __future__ import annotations

import pytest

from repro.core import ThresholdCondition, naive_nlj, prefetch_nlj
from repro.embedding import HashingEmbedder
from repro.vector import Kernel

from _report import FigureReport, time_call
from _smoke import pick

SIZES = pick([(100, 100), (200, 100), (200, 200)], [(20, 20)])
CONDITION = ThresholdCondition(0.8)
DIM = 100


def _words(n: int, prefix: str) -> list[str]:
    return [f"{prefix}-token-{i}" for i in range(n)]


@pytest.fixture(scope="module")
def model() -> HashingEmbedder:
    return HashingEmbedder(dim=DIM)


def _run(variant: str, n_left: int, n_right: int, model: HashingEmbedder):
    left = _words(n_left, "l")
    right = _words(n_right, "r")
    if variant == "naive-nosimd":
        return naive_nlj(left, right, model, CONDITION, kernel=Kernel.SCALAR)
    if variant == "naive-simd":
        return naive_nlj(left, right, model, CONDITION, kernel=Kernel.VECTORIZED)
    if variant == "prefetch-nosimd":
        return prefetch_nlj(left, right, CONDITION, model=model, kernel=Kernel.SCALAR)
    assert variant == "prefetch-simd"
    return prefetch_nlj(left, right, CONDITION, model=model, kernel=Kernel.VECTORIZED)


VARIANTS = ["naive-nosimd", "naive-simd", "prefetch-nosimd", "prefetch-simd"]


def test_fig08_report(model):
    """Full Figure 8 series with shape assertions."""
    report = FigureReport(
        "fig08",
        "naive vs prefetch NLJ x SIMD on/off (scaled from 1k-10k to 100-200)",
        ("size", "variant", "time_ms", "model_calls"),
    )
    times: dict[tuple, float] = {}
    for n_left, n_right in SIZES:
        for variant in VARIANTS:
            result, seconds = time_call(_run, variant, n_left, n_right, model)
            times[(variant, n_left, n_right)] = seconds
            report.add(
                f"{n_left}x{n_right}",
                variant,
                seconds * 1000,
                result.stats.model_calls,
            )
    for n_left, n_right in SIZES:
        naive = times[("naive-simd", n_left, n_right)]
        prefetch = times[("prefetch-simd", n_left, n_right)]
        # Paper: orders of magnitude; we assert a conservative 5x.
        assert prefetch * 5 < naive, (
            f"prefetch should dominate naive at {n_left}x{n_right}: "
            f"{prefetch:.4f}s vs {naive:.4f}s"
        )
        scalar = times[("prefetch-nosimd", n_left, n_right)]
        vectorized = times[("prefetch-simd", n_left, n_right)]
        assert vectorized < scalar, (
            "vectorized kernel should beat the scalar kernel under prefetch"
        )
    report.note(
        "prefetch turns |R|*|S| model calls into |R|+|S| (cost model Sec IV-A)"
    )
    report.emit()
