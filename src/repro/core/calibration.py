"""Cost-model calibration from micro-measurements.

The paper (Section IV-A) requires the A/M/C factors to "be parametrized
based on their mutually normalized relative performance" of the target
system.  This module measures them on the running machine:

* ``A`` (access)  — per-tuple cost of streaming rows through a filter pass,
* ``M`` (model)   — per-item cost of the given embedding model,
* ``C`` (compute) — per-dimension cost of the row-at-a-time cosine kernel,
* GEMM efficiency — per-dimension GEMM cost relative to ``C``,
* probe hop cost  — per-distance-computation cost of an index probe.

The result is a :class:`~repro.core.cost_model.CostParams` normalized to
``A == 1`` that plugs straight into access-path selection.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..embedding.base import EmbeddingModel
from ..errors import JoinError
from ..index.base import VectorIndex
from .conditions import ThresholdCondition
from .cost_model import CostParams
from .nlj import prefetch_nlj
from .tensor_join import tensor_join

#: Timed repetitions per measurement; the minimum is reported.
_REPEATS = 5


def _time(fn) -> float:
    """Steady-state seconds of one ``fn()``: warm-up call, then min of 5.

    The untimed first call pays one-off costs (BLAS thread start-up, page
    faults, lazy imports) that would otherwise be charged to whichever
    kernel happens to be measured first; the minimum discards scheduler
    noise, which only ever adds time.  What is left is reported raw: a
    machine whose BLAS calls are slow *every* time (a threaded OpenBLAS
    on a contended 2-vCPU box pays a scheduler quantum per call) reads
    as a slow GEMM, and should — run with one BLAS thread to fix that.
    """
    fn()
    best = float("inf")
    for _ in range(_REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class CalibrationReport:
    """Raw per-unit timings (seconds) behind a calibrated CostParams."""

    access_per_tuple: float
    model_per_item: float
    nlj_per_dim_element: float
    gemm_per_dim_element: float
    probe_per_distance: float | None

    def to_params(self) -> CostParams:
        """Normalize to access == 1 (floors keep parameters positive)."""
        unit = max(self.access_per_tuple, 1e-12)

        def norm(value: float, floor: float = 1e-6) -> float:
            return max(value / unit, floor)

        gemm_eff = max(
            self.gemm_per_dim_element / max(self.nlj_per_dim_element, 1e-15),
            1e-3,
        )
        params = CostParams(
            access=1.0,
            model=norm(self.model_per_item),
            compute_per_dim=norm(self.nlj_per_dim_element),
            gemm_efficiency=min(gemm_eff, 1.0),
        )
        if self.probe_per_distance is not None:
            params.probe_hop = norm(self.probe_per_distance)
        params.validate()
        return params


def calibrate(
    model: EmbeddingModel,
    *,
    dim: int = 64,
    n_rows: int = 2_000,
    index: VectorIndex | None = None,
    seed: int = 17,
) -> CalibrationReport:
    """Measure A, M, C and (optionally) probe cost on this machine."""
    if n_rows < 64:
        raise JoinError(f"calibration needs >= 64 rows, got {n_rows}")
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n_rows, dim)).astype(np.float32)
    flags = rng.random(n_rows) < 0.5

    # A: one vectorized pass over a relational column.
    access_s = _time(lambda: [np.nonzero(flags)[0] for _ in range(50)]) / (
        50 * n_rows
    )

    # M: embedding cost per item.
    items = [f"calibration-token-{i}" for i in range(256)]
    model_s = _time(lambda: model.embed_batch(items)) / len(items)

    # C (row-at-a-time) and GEMM efficiency, per dim-element.
    cond = ThresholdCondition(0.999)
    n_small = min(n_rows, 512)
    block = data[:n_small]
    elements = n_small * n_small * dim
    nlj_s = _time(lambda: prefetch_nlj(block, block, cond)) / elements
    gemm_s = _time(lambda: tensor_join(block, block, cond)) / elements

    probe_s: float | None = None
    if index is not None and len(index) > 0:
        queries = rng.standard_normal((16, index.dim)).astype(np.float32)
        before = index.stats.distance_computations
        index.search_batch(queries, 8)
        distances = index.stats.distance_computations - before
        if distances > 0:
            probe_s = _time(lambda: index.search_batch(queries, 8)) / distances

    return CalibrationReport(
        access_per_tuple=access_s,
        model_per_item=model_s,
        nlj_per_dim_element=nlj_s,
        gemm_per_dim_element=gemm_s,
        probe_per_distance=probe_s,
    )


def calibrated_params(model: EmbeddingModel, **kwargs) -> CostParams:
    """One-call convenience: calibrate and return normalized CostParams."""
    return calibrate(model, **kwargs).to_params()
