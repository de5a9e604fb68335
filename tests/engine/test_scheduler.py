"""Unit tests for the work-stealing scheduler."""

import threading
import time

import pytest

from repro.engine.scheduler import SchedulerStats, WorkStealingScheduler
from repro.errors import JoinError


class TestWorkStealingScheduler:
    def test_results_in_task_order(self):
        scheduler = WorkStealingScheduler(4)
        tasks = [lambda i=i: i * i for i in range(50)]
        assert scheduler.run(tasks) == [i * i for i in range(50)]

    def test_single_worker_inline(self):
        scheduler = WorkStealingScheduler(1)
        order = []
        tasks = [lambda i=i: order.append(i) for i in range(5)]
        scheduler.run(tasks)
        assert order == [0, 1, 2, 3, 4]

    def test_empty_batch(self):
        assert WorkStealingScheduler(4).run([]) == []

    def test_invalid_worker_count(self):
        with pytest.raises(JoinError, match="n_workers"):
            WorkStealingScheduler(0)

    def test_exception_propagates(self):
        scheduler = WorkStealingScheduler(3)

        def boom():
            raise ValueError("task failed")

        with pytest.raises(ValueError, match="task failed"):
            scheduler.run([lambda: 1, boom, lambda: 2])

    def test_uses_multiple_threads(self):
        scheduler = WorkStealingScheduler(4)
        seen = set()

        def task():
            seen.add(threading.current_thread().name)
            time.sleep(0.005)
            return True

        results = scheduler.run([task for _ in range(16)])
        assert all(results)
        assert len(seen) > 1

    def test_stealing_rebalances_skew(self):
        """A worker stuck on a slow morsel loses its queue to thieves."""
        scheduler = WorkStealingScheduler(2)
        stats = SchedulerStats()

        def slow():
            time.sleep(0.05)
            return "slow"

        # Worker 0's slice starts with the slow task; worker 1's tasks are
        # instant, so it should steal from worker 0's backlog.
        tasks = [slow] + [lambda: "fast" for _ in range(19)]
        results = scheduler.run(tasks, stats=stats)
        assert results[0] == "slow"
        assert stats.steals > 0

    def test_no_stealing_mode(self):
        scheduler = WorkStealingScheduler(2, work_stealing=False)
        stats = SchedulerStats()
        results = scheduler.run(
            [lambda i=i: i for i in range(10)], stats=stats
        )
        assert results == list(range(10))
        assert stats.steals == 0

    def test_worker_count_capped_by_tasks(self):
        stats = SchedulerStats()
        WorkStealingScheduler(8).run([lambda: 1, lambda: 2], stats=stats)
        assert stats.n_workers == 2
