"""The shape rule's edge-and-budget arithmetic (steps 1-2 of
``repro.vector.select.scan_shape``), as ``BatchPolicy.resolve`` pinned it
before the rule took it over; the full shape table is in
``tests/vector/test_select.py``."""

import pytest

from repro.engine import ExecutionEngine
from repro.errors import BufferBudgetError
from repro.vector.select import scan_shape


class TestResolve:
    def test_defaults_to_full_matrix(self):
        assert scan_shape(100, 200) == (100, 200)

    def test_explicit_batches_clamped_to_inputs(self):
        assert scan_shape(10, 10, batch_left=50, batch_right=3) == (10, 3)

    def test_budget_square(self):
        bl, br = scan_shape(1000, 1000, buffer_budget_bytes=4 * 10_000)
        assert bl * br <= 10_000
        assert bl == br == 100

    def test_budget_below_one_cell(self):
        with pytest.raises(BufferBudgetError, match="FP32 cell"):
            scan_shape(10, 10, buffer_budget_bytes=2)

    def test_empty_relations(self):
        assert scan_shape(0, 5) == (1, 5)
        assert scan_shape(5, 0) == (5, 1)
        assert scan_shape(0, 0) == (1, 1)

    def test_reserve_shrinks_dense_block(self):
        plain = scan_shape(1000, 1000, buffer_budget_bytes=40_000)
        reserved = scan_shape(
            1000, 1000, buffer_budget_bytes=40_000, reserve_bytes_per_row=36
        )
        assert reserved[0] * reserved[1] < plain[0] * plain[1]
        # Dense block plus reserved state stays within the budget.
        bl, br = reserved
        assert bl * br * 4 + bl * 36 <= 40_000

    def test_reserve_too_large_for_budget(self):
        with pytest.raises(BufferBudgetError):
            scan_shape(
                1000, 1000, buffer_budget_bytes=64, reserve_bytes_per_row=1 << 20
            )

    def test_explicit_sizes_never_budget_capped(self):
        """A caller pinning both edges (mini-batch ablations) gets exactly
        those edges even when they exceed the budget."""
        assert scan_shape(
            5000, 5000, batch_left=2000, batch_right=2000, buffer_budget_bytes=4 * 100
        ) == (2000, 2000)

    def test_single_explicit_edge_kept_other_derived(self):
        bl, br = scan_shape(1000, 1000, batch_left=50, buffer_budget_bytes=4 * 1000)
        assert bl == 50
        assert br == 1000 // 50  # remaining budget cells per left row

    def test_instance_budget_used_when_not_overridden(self, small_vectors):
        """An engine's own budget shapes the joins run on it; a join's
        ``buffer_budget_bytes=`` overrides it."""
        from repro.core import ThresholdCondition, tensor_join

        left, right = small_vectors
        engine = ExecutionEngine(n_threads=1, buffer_budget_bytes=4 * 100)
        own = tensor_join(left, right, ThresholdCondition(0.4), engine=engine)
        assert own.stats.peak_buffer_elements <= 100
        assert own.stats.extra["peak_intermediate_bytes"] <= 4 * 100
        wide = tensor_join(
            left, right, ThresholdCondition(0.4), engine=engine,
            buffer_budget_bytes=1 << 20,
        )
        assert wide.stats.peak_buffer_elements > 100
        assert wide.pairs() == own.pairs()
