"""Unit tests for the ExecutionEngine facade."""

import numpy as np
import pytest

from repro.config import configure, get_config
from repro.engine import ExecutionEngine, serial_engine
from repro.engine.executor import MORSEL_ROWS


@pytest.fixture()
def restore_config():
    config = get_config()
    saved = (config.default_threads, config.default_buffer_budget_bytes)
    yield config
    config.default_threads, config.default_buffer_budget_bytes = saved


class TestEngineConstruction:
    def test_defaults_from_config(self, restore_config):
        configure(default_threads=3, default_buffer_budget_bytes=4096)
        engine = ExecutionEngine()
        assert engine.n_threads == 3
        assert engine.morsel_rows == MORSEL_ROWS
        assert engine.buffer_budget_bytes == 4096

    def test_explicit_arguments_win(self, restore_config):
        configure(default_threads=2)
        engine = ExecutionEngine(n_threads=5, morsel_rows=10)
        assert engine.n_threads == 5
        assert engine.morsel_rows == 10

    def test_serial_engine(self):
        assert serial_engine().n_threads == 1

    def test_invalid_morsel_rows(self):
        with pytest.raises(ValueError, match="morsel_rows"):
            ExecutionEngine(morsel_rows=0)


class TestMorselization:
    def test_morsels_cover_input(self):
        engine = ExecutionEngine(n_threads=4, morsel_rows=100)
        morsels = engine.morsels_for(1000)
        assert morsels[0].start == 0
        assert morsels[-1].stop == 1000
        assert sum(len(m) for m in morsels) == 1000

    def test_morsels_give_stealing_slack(self):
        """Each worker should see several morsels, not one static slab."""
        engine = ExecutionEngine(n_threads=4, morsel_rows=10_000)
        morsels = engine.morsels_for(4000)
        assert len(morsels) >= 4 * 4

    def test_small_input_single_morsel(self):
        engine = ExecutionEngine(n_threads=1, morsel_rows=1024)
        assert len(engine.morsels_for(10)) == 1

    def test_empty_input(self):
        assert ExecutionEngine(n_threads=2).morsels_for(0) == []

    def test_known_row_work_keeps_morsels_over_the_task_floor(self):
        """835 x 8,000 x 64 used to be cut into eight 105-row morsels of
        54 M multiply-adds; with the work known they come out at the
        floor's size or above, in whole rounds of workers.  (Four
        minimum tasks in all: not a join that trades its stealing slack
        for ``WIDE_TASK_ROWS``-row tasks.)"""
        from repro.vector.select import MIN_TASK_WORK

        engine = ExecutionEngine(n_threads=2)
        assert sorted(len(m) for m in engine.morsels_for(835)) == [104] * 5 + [105] * 3
        morsels = engine.morsels_for(835, row_work=8_000 * 64)
        assert sorted(len(m) for m in morsels) == [208, 209, 209, 209]
        assert all(len(m) * 8_000 * 64 >= MIN_TASK_WORK for m in morsels)
        assert morsels[0].start == 0 and morsels[-1].stop == 835

    def test_large_joins_morselize_exactly_as_without_row_work(self):
        """1,000 x 40,000 x 128 morsels are 6x over the work floor.  With
        no price they are cut as ever; priced, two workers get 500 rows
        each (every task re-reads and re-packs the whole right side: the
        sweep's GEMM runs at 96 GFLOP/s in 125-row blocks, 124 in 500-row
        ones), eight workers keep a task each — today's 125 rows."""
        engine = ExecutionEngine(n_threads=2)
        plain = engine.morsels_for(1000)
        assert [len(m) for m in plain] == [125] * 8
        priced = engine.morsels_for(1000, row_work=40_000 * 128)
        assert [len(m) for m in priced] == [500] * 2
        eight = ExecutionEngine(n_threads=8)
        assert eight.morsels_for(1000, row_work=40_000 * 128) == plain

    def test_work_under_one_task_is_not_split(self):
        engine = ExecutionEngine(n_threads=4)
        assert len(engine.morsels_for(100, row_work=100 * 16)) == 1
        # Work for fewer tasks than workers: that many morsels, not four.
        from repro.vector.select import MIN_TASK_WORK

        row_work = MIN_TASK_WORK // 100
        assert len(engine.morsels_for(300, row_work=row_work)) == 2
        # Nor is a priced cut ever under MIN_TASK_ROWS rows a morsel.
        assert len(engine.morsels_for(150, row_work=MIN_TASK_WORK)) == 1

    def test_configured_morsel_size_stays_an_upper_bound(self):
        engine = ExecutionEngine(n_threads=2, morsel_rows=10)
        assert max(len(m) for m in engine.morsels_for(100, row_work=1)) <= 10


class TestMapMorsels:
    @pytest.mark.parametrize("n_threads", [1, 4])
    def test_results_in_input_order(self, n_threads):
        engine = ExecutionEngine(n_threads=n_threads, morsel_rows=7)
        results = engine.map_morsels(100, lambda m: (m.start, m.stop))
        flat = [r for r in results]
        assert flat[0][0] == 0
        assert flat[-1][1] == 100
        for (_, hi), (lo, _) in zip(flat, flat[1:]):
            assert hi == lo

    def test_stats_accumulate(self):
        engine = ExecutionEngine(n_threads=2, morsel_rows=5)
        engine.map_morsels(50, lambda m: len(m))
        assert engine.stats.runs == 1
        assert engine.stats.morsels_dispatched == len(engine.morsels_for(50))

    def test_sum_matches_sequential(self):
        data = np.arange(1000, dtype=np.float64)
        engine = ExecutionEngine(n_threads=4, morsel_rows=13)
        parts = engine.map_morsels(
            1000, lambda m: float(data[m.start : m.stop].sum())
        )
        assert sum(parts) == pytest.approx(float(data.sum()))
