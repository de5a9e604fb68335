"""Adaptive mini-batch sizing for blocked GEMM execution.

``resolve_batch_shape`` in :mod:`repro.core.tensor_join` derives block
edges from a memory budget alone.  The engine refines this with measured
machine behaviour: given a calibrated per-dimension GEMM cost (from
:mod:`repro.core.calibration`), blocks are sized so one GEMM call runs for
roughly ``target_block_seconds`` — long enough to amortize dispatch and
release the GIL productively, short enough that work stealing can
rebalance and the dense intermediate stays cache-resident.  The Figure 7
buffer budget always remains the hard ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..errors import BufferBudgetError

#: Bytes per FP32 cell of the dense score intermediate.
CELL_BYTES = 4


@dataclass(frozen=True)
class BatchPolicy:
    """How the engine picks GEMM block shapes.

    Attributes:
        buffer_budget_bytes: hard cap on the dense intermediate (plus the
            top-k merge state when a top-k condition streams through it).
        gemm_seconds_per_fma: measured per-dimension-element GEMM cost; the
            adaptive edge targets ``target_block_seconds`` per block.
        target_block_seconds: desired wall time of one GEMM block.
        min_edge / max_edge: clamps on the adaptive edge so degenerate
            calibrations cannot produce absurd blocks.
    """

    buffer_budget_bytes: int | None = None
    gemm_seconds_per_fma: float | None = None
    target_block_seconds: float = 0.02
    min_edge: int = 128
    max_edge: int = 16384

    @classmethod
    def from_calibration(
        cls,
        report,
        *,
        buffer_budget_bytes: int | None = None,
        target_block_seconds: float = 0.02,
    ) -> "BatchPolicy":
        """Build a policy from a :class:`~repro.core.calibration.CalibrationReport`.

        Duck-typed on ``gemm_per_dim_element`` so the engine layer does not
        import the core layer (which imports the engine).
        """
        return cls(
            buffer_budget_bytes=buffer_budget_bytes,
            gemm_seconds_per_fma=float(report.gemm_per_dim_element),
            target_block_seconds=target_block_seconds,
        )

    def with_budget(self, buffer_budget_bytes: int | None) -> "BatchPolicy":
        return replace(self, buffer_budget_bytes=buffer_budget_bytes)

    def adaptive_edge(self, dim: int) -> int | None:
        """Square block edge hitting the per-block time target, or ``None``."""
        if not self.gemm_seconds_per_fma or self.gemm_seconds_per_fma <= 0:
            return None
        cells = self.target_block_seconds / (
            self.gemm_seconds_per_fma * max(dim, 1)
        )
        if cells < 1:
            return self.min_edge
        edge = int(math.sqrt(cells))
        return max(self.min_edge, min(edge, self.max_edge))

    def resolve(
        self,
        n_left: int,
        n_right: int,
        dim: int,
        *,
        batch_left: int | None = None,
        batch_right: int | None = None,
        buffer_budget_bytes: int | None = None,
        reserve_bytes_per_left_row: int = 0,
    ) -> tuple[int, int]:
        """Pick ``(batch_left, batch_right)`` block edges.

        Explicit sizes win unconditionally — a caller who pins an edge
        (e.g. the mini-batch ablations) gets exactly that edge, clamped
        only to the input size, never to the budget.  Unspecified edges
        are derived: the calibrated adaptive edge seeds them and the
        buffer budget caps them.  ``reserve_bytes_per_left_row`` carves
        out per-left-row state (the streaming top-k merger) from the
        budget before sizing the dense block, so *total* intermediate
        memory honours the budget whenever the shape is budget-derived.
        """
        explicit_left = batch_left is not None
        explicit_right = batch_right is not None
        if (explicit_left and batch_left < 1) or (
            explicit_right and batch_right < 1
        ):
            raise BufferBudgetError(
                f"invalid batch shape ({batch_left}, {batch_right})"
            )
        if n_left <= 0 or n_right <= 0:
            return max(n_left, 1), max(n_right, 1)
        budget = (
            self.buffer_budget_bytes
            if buffer_budget_bytes is None
            else buffer_budget_bytes
        )
        edge = (
            None
            if explicit_left and explicit_right
            else self.adaptive_edge(dim)
        )
        if budget is not None and not (explicit_left and explicit_right):
            cells = budget // CELL_BYTES
            if cells < 1:
                raise BufferBudgetError(
                    f"buffer budget {budget}B cannot hold one FP32 cell"
                )
            # Merge state + >=1 score cell per left row; the state takes
            # at most half the budget, or a large reserve would squeeze
            # the score block down to a few columns.
            row_cost = max(
                reserve_bytes_per_left_row + CELL_BYTES,
                2 * reserve_bytes_per_left_row,
            )
            if not explicit_left:
                seed = edge if edge is not None else int(math.isqrt(cells))
                batch_left = max(
                    1, min(n_left, max(seed, 1), budget // row_cost)
                )
            reserved = (batch_left * reserve_bytes_per_left_row) // CELL_BYTES
            free_cells = cells - reserved
            if free_cells < batch_left and not explicit_left:
                raise BufferBudgetError(
                    f"buffer budget {budget}B cannot hold one score column "
                    f"plus merge state for {batch_left} left rows"
                )
            if not explicit_right:
                cap = max(free_cells // batch_left, 1)
                # The calibrated edge bounds the derived right edge as
                # well, or one wide block would blow the per-block time
                # target the calibration exists to hit.
                batch_right = cap if edge is None else max(1, min(cap, edge))
        elif edge is not None:
            if not explicit_left:
                batch_left = min(n_left, edge)
            if not explicit_right:
                batch_right = min(n_right, edge)
        batch_left = n_left if batch_left is None else min(batch_left, n_left)
        batch_right = n_right if batch_right is None else min(batch_right, n_right)
        if batch_left < 1 or batch_right < 1:
            raise BufferBudgetError(
                f"invalid batch shape ({batch_left}, {batch_right})"
            )
        return batch_left, batch_right
