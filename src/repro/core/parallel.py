"""Data-parallel E-join execution (Section V-A, Figure 9).

The paper parallelizes by partitioning the input relations along tuple
boundaries and running the join kernel per partition on affinitized
threads.  Here partitioning and scheduling belong to the morsel-driven
:mod:`repro.engine`: the left relation is cut into many small morsels and
work-stealing workers run NumPy/BLAS kernels that release the GIL, so a
thread pool yields genuine multicore scaling for the vectorized and GEMM
paths — the Python analogue of the paper's 48-thread runs, robust to skew
because idle workers steal queued morsels instead of waiting at a static
partition barrier.
"""

from __future__ import annotations

import time

import numpy as np

from ..engine import ExecutionEngine, Morsel, partition_rows
from ..errors import JoinError
from ..vector.kernels import Kernel
from ..vector.norms import normalize_rows
from .conditions import JoinCondition, validate_condition
from .nlj import prefetch_nlj
from .result import JoinResult, JoinStats
from .tensor_join import tensor_join

__all__ = ["parallel_join", "partition_rows"]


def _offset_result(part: JoinResult, offset: int) -> JoinResult:
    return JoinResult(
        part.left_ids + offset, part.right_ids, part.scores, part.stats
    )


def parallel_join(
    left: np.ndarray,
    right: np.ndarray,
    condition: JoinCondition,
    *,
    strategy: str = "tensor",
    n_threads: int | None = None,
    kernel: Kernel = Kernel.VECTORIZED,
    batch_left: int | None = None,
    batch_right: int | None = None,
    buffer_budget_bytes: int | None = None,
    assume_normalized: bool = False,
    engine: ExecutionEngine | None = None,
) -> JoinResult:
    """Morselize the left relation and join morsels on engine workers.

    Args:
        strategy: ``"tensor"`` (GEMM blocks per morsel) or ``"nlj"``
            (prefetch NLJ per morsel).
        n_threads: worker count; defaults to the machine's CPU count.
            Ignored when an explicit ``engine`` is supplied.
        kernel: similarity kernel for the NLJ strategy.
        buffer_budget_bytes: total Figure 7 buffer budget for the tensor
            strategy's dense intermediates, split evenly across workers so
            concurrently-held blocks stay within it.
        assume_normalized: both inputs are already unit rows (e.g. the
            planner's normalize-once matrix); skip normalization.
        engine: a pre-configured :class:`~repro.engine.ExecutionEngine`;
            by default one is built for ``n_threads`` workers.

    The result is identical to the single-threaded operator (partitioning
    is along tuples; both condition families are per-left-tuple, and
    morsel results reassemble in input order regardless of which worker
    ran them).
    """
    validate_condition(condition)
    if strategy not in ("tensor", "nlj"):
        raise JoinError(f"unknown parallel strategy {strategy!r}")
    if engine is not None and n_threads is not None:
        raise JoinError(
            "pass either n_threads or a pre-configured engine, not both "
            "(the engine's worker count would silently win)"
        )
    left = np.asarray(left, dtype=np.float32)
    right = np.asarray(right, dtype=np.float32)
    if engine is None:
        engine = ExecutionEngine(n_threads=n_threads)

    stats = JoinStats(strategy=f"parallel-{strategy}/{engine.n_threads}t")
    start = time.perf_counter()
    stats.n_left, stats.n_right = len(left), len(right)

    # Normalize once, outside the workers (shared read-only operands).
    left_n = left if assume_normalized else normalize_rows(left)
    right_n = right if assume_normalized else normalize_rows(right)

    # Morsels run concurrently, so each worker's inner tensor_join gets
    # its share of the total budget (explicit or engine-configured),
    # divided by how many morsels can actually be in flight at once.
    row_work = len(right_n) * left_n.shape[1] if left_n.ndim == 2 else None
    n_morsels = len(engine.morsels_for(len(left_n), row_work=row_work))
    worker_budget = engine.worker_budget(
        buffer_budget_bytes, concurrency=n_morsels
    )

    def run_morsel(morsel: Morsel) -> JoinResult:
        chunk = left_n[morsel.start : morsel.stop]
        if strategy == "tensor":
            part = tensor_join(
                chunk,
                right_n,
                condition,
                batch_left=batch_left,
                batch_right=batch_right,
                buffer_budget_bytes=worker_budget,
                assume_normalized=True,
                policy=engine.policy,  # calibrated block sizing per morsel
            )
        else:
            part = prefetch_nlj(
                chunk, right_n, condition, kernel=kernel,
                assume_normalized=True,
            )
        return _offset_result(part, morsel.start)

    results = engine.map_morsels(len(left_n), run_morsel, row_work=row_work)

    merged = JoinResult.concat(results, stats)
    stats.similarity_evaluations = sum(
        r.stats.similarity_evaluations for r in results
    )
    stats.batch_invocations = sum(r.stats.batch_invocations for r in results)
    stats.peak_buffer_elements = max(
        (r.stats.peak_buffer_elements for r in results), default=0
    )
    stats.extra["morsels"] = len(results)
    stats.seconds = time.perf_counter() - start
    stats.pairs_emitted = len(merged)
    return merged
