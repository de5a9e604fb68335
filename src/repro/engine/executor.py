"""The execution engine: a fork-join over morsels, and the numbers a shape needs.

One :class:`ExecutionEngine` instance owns what the physical join
operators used to decide ad hoc: how the left relation is partitioned
(morsels) and who runs them (one persistent thread pool per engine).  It
also carries the three numbers the one shape rule
(:func:`repro.vector.select.scan_shape`) takes from an executor — worker
count, morsel size, Figure 7 buffer budget.  Operators stay pure
functions over row ranges; the engine decides placement.

The parallelism is the paper's (§IV-C / §V-A): the left relation is cut
into blocks that run independently, and their results are concatenated
in order.  Python threads suffice because the tasks wrap NumPy/BLAS
kernels that release the GIL.  A thread cannot die abruptly and a hung
one can only be abandoned, which the query deadline already bounds; so
the pool is not supervised, and a transient fault is answered by re-running
the pure task under the run's retry policy.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field

from ..config import cpu_count, get_config
from ..obs.trace import QueryScope, current_scope, span
from ..reliability.faults import maybe_inject
from ..reliability.retry import BoundRetry, RetryPolicy
from ..vector.select import task_rows, worth_scheduling
from .morsel import Morsel, make_morsels

#: Cap on distinct per-tag counters retained in :class:`EngineStats`.
#: A long-running service tags every query uniquely; without a bound the
#: attribution dict would grow one entry per query forever.  Beyond the
#: cap the oldest tags fold into the ``"<evicted>"`` aggregate.
MAX_TRACKED_TAGS = 1024

#: Default upper bound on rows per morsel: small enough that an idle
#: worker's next morsel absorbs skew, large enough that the per-morsel
#: BLAS call dominates dispatch.
MORSEL_ROWS = 1024


@dataclass
class EngineStats:
    """Cumulative run counters across an engine's lifetime.

    Updates go through :meth:`record` under an internal lock: a service
    runs many queries on one engine concurrently, and per-tag morsel
    attribution (``by_tag``) must not lose counts to racing increments.
    ``by_tag`` keeps at most :data:`MAX_TRACKED_TAGS` recent tags; older
    ones are folded into an ``"<evicted>"`` aggregate so total counts
    stay exact while memory stays bounded.
    """

    runs: int = 0
    morsels_dispatched: int = 0
    retries: int = 0
    #: query/group tag -> morsels dispatched under that tag.
    by_tag: dict = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, morsels: int, retries: int, *, tag: str | None = None) -> None:
        """Fold one run into the cumulative counters."""
        with self._lock:
            self.runs += 1
            self.morsels_dispatched += morsels
            self.retries += retries
            if tag is not None:
                self.by_tag[tag] = self.by_tag.get(tag, 0) + morsels
                while (
                    len(self.by_tag) - ("<evicted>" in self.by_tag)
                    > MAX_TRACKED_TAGS
                ):
                    oldest = next(
                        key for key in self.by_tag if key != "<evicted>"
                    )
                    self.by_tag["<evicted>"] = (
                        self.by_tag.get("<evicted>", 0) + self.by_tag.pop(oldest)
                    )

    def snapshot(self) -> dict:
        """Consistent copy of every counter, taken under the lock.

        Reporting paths (service stats/health/metrics) must
        use this instead of reading fields directly: a concurrent
        :meth:`record` would otherwise interleave mid-read and produce
        counters that never coexisted.
        """
        with self._lock:
            return {
                "runs": self.runs,
                "morsels_dispatched": self.morsels_dispatched,
                "retries": self.retries,
                "tagged_queries": len(self.by_tag),
            }


class ExecutionEngine:
    """Morsel-driven fork-join executor for E-join operators.

    Args:
        n_threads: worker count; ``None`` uses the configured CPU count.
        morsel_rows: upper bound on rows per morsel (default
            :data:`MORSEL_ROWS`).
        buffer_budget_bytes: Figure 7 budget of the joins run on this
            engine (a join's own ``buffer_budget_bytes=`` overrides it);
            ``None`` uses the configured default.

    The engine's ``n_threads`` workers are one thread pool, created by the
    first run that schedules and shared by every concurrent run.  Its
    threads end when the engine is collected: they hold no reference to
    it.
    """

    def __init__(
        self,
        *,
        n_threads: int | None = None,
        morsel_rows: int = MORSEL_ROWS,
        buffer_budget_bytes: int | None = None,
    ) -> None:
        config = get_config()
        self.n_threads = (
            cpu_count() if n_threads is None else max(1, int(n_threads))
        )
        self.morsel_rows = morsel_rows
        if self.morsel_rows < 1:
            raise ValueError(f"morsel_rows must be >= 1, got {self.morsel_rows}")
        self.buffer_budget_bytes = (
            config.default_buffer_budget_bytes
            if buffer_budget_bytes is None
            else buffer_budget_bytes
        )
        self.stats = EngineStats()
        #: Engine-wide retry parameters; bound per run with the ambient
        #: query scope's deadline and retry budget.  The policy's stats
        #: object is shared by every bound view, so retry counters
        #: accumulate across the engine's lifetime.
        self.retry_policy = RetryPolicy.from_config()
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def morsels_for(
        self, n_rows: int, *, row_work: int | None = None
    ) -> list[Morsel]:
        """Morselize ``[0, n_rows)`` for this engine's worker count: tasks
        of :func:`~repro.vector.select.task_rows` rows, the cut a scan
        join's left side gets."""
        rows = task_rows(n_rows, self.n_threads, self.morsel_rows, row_work)
        return make_morsels(n_rows, rows)

    def map_morsels(
        self,
        n_rows: int,
        task: Callable[[Morsel], object],
        *,
        row_work: int | None = None,
    ) -> list:
        """Run ``task`` over every morsel of ``[0, n_rows)``.

        Returns per-morsel results in input (sequence) order, so callers
        can concatenate them and obtain exactly the single-threaded result.
        With ``row_work`` given, a map whose whole work does not repay a
        run on the pool stays inline, as a scan join's blocks do.
        """
        morsels = self.morsels_for(n_rows, row_work=row_work)
        if row_work is not None and not worth_scheduling(n_rows * row_work):
            return [task(m) for m in morsels]  # not worth one run
        return self.run([lambda m=m: task(m) for m in morsels])

    def run(self, tasks: Sequence[Callable[[], object]]) -> list:
        """Run an ordered batch of independent tasks; results keep task order.

        One task, or a one-thread engine, runs inline on the caller's
        thread; otherwise the tasks go to the engine's pool.  Every attempt
        passes the ``engine.worker`` fault site under this run's retry
        policy, bound to the ambient query scope's deadline and retry
        budget: tasks are pure, so a transient re-run is bit-safe.  The
        first exception ends the run: its tasks not yet started never
        start, those running finish, and the exception (the first in task
        order, if several were raised) re-raises here with its traceback.
        Another run's tasks are not touched.

        No task calls back into :meth:`run` — a task blocking on the pool
        it occupies could starve it.  The callers (``scan_join``'s left
        blocks, ``index_join``'s probe batches and ``prefetch_nlj``'s
        morsels via :meth:`map_morsels`) schedule kernels only.
        """
        # The scope's tag attributes the run; a standalone run gets its own
        # budget and no tag.  The span lives on the calling thread, the one
        # carrying the ambient query trace.
        scope = current_scope() or QueryScope()
        bound = self.retry_policy.bind(
            deadline=scope.deadline, budget=scope.retry_budget()
        )
        with span("engine.run") as sp:
            if self.n_threads == 1 or len(tasks) <= 1:
                results = [_attempt(bound, task) for task in tasks]
            else:
                results = _fork_join(self._workers(), bound, tasks)
            sp.set(tag=scope.tag, morsels=len(tasks), retries=bound.local_retries)
        self.stats.record(len(tasks), bound.local_retries, tag=scope.tag)
        return results

    def _workers(self) -> ThreadPoolExecutor:
        """The engine's pool, created on first use.  Its worker threads
        hold it weakly and exit once the engine (its one owner) is gone."""
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    self.n_threads, thread_name_prefix="repro-engine"
                )
            return self._pool


def _attempt(bound: BoundRetry, task: Callable[[], object]):
    """Run one task through the fault site, re-running it on a transient
    failure within the bound policy."""

    def once():
        maybe_inject("engine.worker")
        return task()

    return bound.call(once)


def _fork_join(
    pool: ThreadPoolExecutor, bound: BoundRetry, tasks: Sequence[Callable[[], object]]
) -> list:
    """Submit every task to ``pool``; results in task order.  On a failure
    the run's queued tasks are cancelled, its running ones finish, and the
    first exception in task order re-raises."""
    failed = threading.Event()

    def execute(task):
        if failed.is_set():
            return None  # the run has failed: a queued task never starts
        try:
            return _attempt(bound, task)
        except BaseException:
            failed.set()
            raise

    futures = [pool.submit(execute, task) for task in tasks]
    wait(futures, return_when=FIRST_EXCEPTION)
    if failed.is_set():
        for future in futures:
            future.cancel()
        wait(futures)  # no task of the run outlives it
        raise next(
            future.exception()
            for future in futures
            if not future.cancelled() and future.exception()
        )
    return [future.result() for future in futures]


def serial_engine() -> ExecutionEngine:
    """A fresh single-threaded engine (deterministic inline execution)."""
    return ExecutionEngine(n_threads=1)
