"""Unit tests for ``ExecutionEngine.run``: a fork-join on the engine's pool."""

import gc
import threading
import time

import pytest

from repro.engine import ExecutionEngine
from repro.errors import TransientFault
from repro.obs.trace import QueryScope, Trace
from repro.reliability.faults import FaultInjector, clear_injector, install_injector
from repro.reliability.retry import RetryPolicy


class FlakyTask:
    """Task failing transiently on its first ``n`` executions."""

    def __init__(self, value: int, n: int) -> None:
        self.value = value
        self.n = n
        self._lock = threading.Lock()

    def __call__(self) -> int:
        with self._lock:
            if self.n > 0:
                self.n -= 1
                raise TransientFault("flaky task")
        return self.value


def engine_retrying(n_threads: int, max_attempts: int) -> ExecutionEngine:
    engine = ExecutionEngine(n_threads=n_threads)
    # Zero backoff: unit tests never sleep for retry timing.
    engine.retry_policy = RetryPolicy(max_attempts, 0.0, 0.0)
    return engine


class TestRun:
    def test_results_in_task_order(self):
        engine = ExecutionEngine(n_threads=4)
        tasks = [lambda i=i: i * i for i in range(50)]
        assert engine.run(tasks) == [i * i for i in range(50)]

    def test_results_in_task_order_under_skewed_task_times(self):
        """Every fifth task is slow, so later tasks finish first; the
        results still come back in task order."""
        engine = ExecutionEngine(n_threads=2)
        finished = []

        def task(i):
            time.sleep(0.01 if i % 5 == 0 else 0.0)
            finished.append(i)
            return i

        tasks = [lambda i=i: task(i) for i in range(20)]
        assert engine.run(tasks) == list(range(20))
        assert sorted(finished) == list(range(20))

    def test_single_worker_inline(self):
        engine = ExecutionEngine(n_threads=1)
        order = []
        tasks = [lambda i=i: order.append(i) for i in range(5)]
        engine.run(tasks)
        assert order == [0, 1, 2, 3, 4]

    def test_empty_batch(self):
        assert ExecutionEngine(n_threads=4).run([]) == []

    def test_invalid_worker_count(self):
        """A thread count under one is one: the run is inline."""
        engine = ExecutionEngine(n_threads=0)
        assert engine.n_threads == 1
        caller = threading.current_thread()
        assert engine.run([threading.current_thread] * 3) == [caller] * 3

    def test_exception_propagates(self):
        engine = ExecutionEngine(n_threads=3)

        def boom():
            raise ValueError("task failed")

        with pytest.raises(ValueError, match="task failed"):
            engine.run([lambda: 1, boom, lambda: 2])

    def test_uses_multiple_threads(self):
        engine = ExecutionEngine(n_threads=4)
        seen = set()

        def task():
            seen.add(threading.current_thread().name)
            time.sleep(0.005)
            return True

        results = engine.run([task for _ in range(16)])
        assert all(results)
        assert len(seen) > 1
        assert all(name.startswith("repro-engine") for name in seen)

    def test_a_run_records_its_tag_morsels_and_retries(self):
        """The ``engine.run`` span on the calling thread and the engine's
        cumulative stats both carry the scope's tag, the task count and
        the run's retries."""
        engine = engine_retrying(2, max_attempts=3)
        trace = Trace("q1", "t")
        with QueryScope(trace, tag="client-1/q1"):
            assert engine.run([FlakyTask(i, 1) for i in range(3)]) == [0, 1, 2]
        runs = [s for s in trace.spans if s.name == "engine.run"]
        assert len(runs) == 1
        assert {k: runs[0].attrs[k] for k in ("tag", "morsels", "retries")} == {
            "tag": "client-1/q1", "morsels": 3, "retries": 3,
        }
        assert engine.stats.snapshot() == {
            "runs": 1, "morsels_dispatched": 3, "retries": 3, "tagged_queries": 1,
        }
        assert engine.stats.by_tag == {"client-1/q1": 3}

    @pytest.mark.parametrize(
        "n_threads, n_tasks", [(1, 6), (4, 1)], ids=["one-thread", "one-task"]
    )
    def test_runs_on_the_callers_thread(self, n_threads, n_tasks):
        engine = ExecutionEngine(n_threads=n_threads)
        caller = threading.current_thread()
        ran_on = engine.run([threading.current_thread] * n_tasks)
        assert ran_on == [caller] * n_tasks
        assert engine._pool is None  # nothing scheduled, no pool built


class TestFailure:
    def test_first_exception_reraises_and_queued_tasks_never_start(self):
        """Task 0 fails while task 1 holds the other worker: the caller
        gets task 0's exception with its traceback once task 1 has ended,
        and none of the queued tasks 2.. ever starts."""
        engine = ExecutionEngine(n_threads=2)
        holding, failing, held = threading.Event(), threading.Event(), threading.Event()
        started = []

        def boom():
            holding.wait(5.0)  # the other worker is busy with task 1
            failing.set()
            raise ValueError("task exploded")

        def hold():
            holding.set()
            failing.wait(5.0)
            time.sleep(0.01)  # still running when the run has failed
            held.set()

        tasks = [boom, hold] + [lambda i=i: started.append(i) for i in range(2, 64)]
        with pytest.raises(ValueError, match="task exploded") as excinfo:
            engine.run(tasks)
        assert held.is_set()  # the run's running task finished first
        tb_functions = []
        tb = excinfo.tb
        while tb is not None:
            tb_functions.append(tb.tb_frame.f_code.co_name)
            tb = tb.tb_next
        assert "boom" in tb_functions
        assert engine.run([lambda: 1, lambda: 2]) == [1, 2]
        assert started == []

    @pytest.mark.parametrize("n_threads", [1, 4])
    def test_transient_failures_retried(self, n_threads):
        """Each task fails twice, then succeeds: 16 retries, the whole
        of a standalone run's retry budget."""
        engine = engine_retrying(n_threads, max_attempts=5)
        tasks = [FlakyTask(i, 2) for i in range(8)]
        assert engine.run(tasks) == list(range(8))
        assert engine.stats.retries == 16

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_every_attempt_crosses_the_engine_worker_site(self, n_threads):
        """Inline or pooled, each attempt checks ``engine.worker`` once,
        and an injected transient fault is retried to the same results."""
        engine = engine_retrying(n_threads, max_attempts=5)
        injector = install_injector(
            FaultInjector(0.3, seed=11, sites=("engine.worker",))
        )
        tasks = [lambda i=i: i * 3 for i in range(12)]
        try:
            assert engine.run(tasks) == [i * 3 for i in range(12)]
        finally:
            clear_injector()
        snap = injector.stats.snapshot()
        assert snap["injected"] > 0
        assert snap["checks"] == 12 + engine.stats.retries
        assert engine.stats.retries == snap["injected"]

    def test_transient_fault_past_the_attempts_propagates(self):
        engine = engine_retrying(2, max_attempts=1)
        with pytest.raises(TransientFault):
            engine.run([FlakyTask(0, 1), lambda: 1])
        assert engine.stats.runs == 0  # a failed run is not recorded


class TestSharedPool:
    def test_concurrent_runs_get_their_own_results(self):
        engine = ExecutionEngine(n_threads=2)
        results: dict = {}
        seen = set()

        def task(run, i):
            seen.add(threading.current_thread())
            time.sleep(0.001)
            return (run, i)

        def caller(run):
            results[run] = engine.run([lambda i=i: task(run, i) for i in range(40)])

        threads = [threading.Thread(target=caller, args=(r,)) for r in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert results == {r: [(r, i) for i in range(40)] for r in range(2)}
        # The two runs shared the engine's two workers.
        assert len(seen) <= 2
        assert engine.stats.runs == 2
        assert engine.stats.morsels_dispatched == 80

    def test_one_runs_failure_leaves_the_other_alone(self):
        """Run A fails while run B has a task in flight and more queued:
        B still returns every result."""
        engine = ExecutionEngine(n_threads=2)
        a_failed = threading.Event()
        outcome: dict = {}

        def boom():
            a_failed.set()
            raise ValueError("run A failed")

        def wait_for_a():
            return a_failed.wait(10.0)

        def run_a():
            try:
                engine.run([boom] + [lambda: "a"] * 10)
            except ValueError as exc:
                outcome["a"] = exc

        def run_b():
            outcome["b"] = engine.run([wait_for_a] + [lambda i=i: i for i in range(1, 20)])

        threads = [threading.Thread(target=run_b), threading.Thread(target=run_a)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert str(outcome["a"]) == "run A failed"
        assert outcome["b"] == [True] + list(range(1, 20))

    def test_pool_threads_end_with_the_engine(self):
        engine = ExecutionEngine(n_threads=2)
        workers = set()

        def task():
            workers.add(threading.current_thread())
            time.sleep(0.002)

        engine.run([task] * 8)
        assert workers and all(t.name.startswith("repro-engine") for t in workers)
        del engine
        gc.collect()
        for thread in workers:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in workers)
        assert not workers & set(threading.enumerate())
