"""The execution engine: morsel scheduling and the numbers a shape needs.

One :class:`ExecutionEngine` instance owns what the physical join
operators used to decide ad hoc: how the left relation is partitioned
(morsels) and who runs them (the work-stealing scheduler).  It also
carries the three numbers the one shape rule
(:func:`repro.vector.select.scan_shape`) takes from an executor — worker
count, morsel size, Figure 7 buffer budget.  Operators stay pure
functions over row ranges; the engine decides placement.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from ..config import cpu_count, get_config
from ..obs.trace import QueryScope, current_scope, span
from ..reliability.retry import RetryPolicy
from ..reliability.watchdog import WatchdogPolicy
from ..vector.select import task_rows, worth_scheduling
from .morsel import Morsel, make_morsels
from .scheduler import SchedulerStats, WorkStealingScheduler

#: Cap on distinct per-tag counters retained in :class:`EngineStats`.
#: A long-running service tags every query uniquely; without a bound the
#: attribution dict would grow one entry per query forever.  Beyond the
#: cap the oldest tags fold into the ``"<evicted>"`` aggregate.
MAX_TRACKED_TAGS = 1024


@dataclass
class EngineStats:
    """Cumulative scheduling counters across an engine's lifetime.

    Updates go through :meth:`record` under an internal lock: a service
    runs many queries on one engine concurrently, and per-tag morsel
    attribution (``by_tag``) must not lose counts to racing increments.
    ``by_tag`` keeps at most :data:`MAX_TRACKED_TAGS` recent tags; older
    ones are folded into an ``"<evicted>"`` aggregate so total counts
    stay exact while memory stays bounded.
    """

    runs: int = 0
    morsels_dispatched: int = 0
    steals: int = 0
    retries: int = 0
    watchdog_stalls: int = 0
    worker_deaths: int = 0
    worker_respawns: int = 0
    reenqueued_tasks: int = 0
    #: query/group tag -> morsels dispatched under that tag.
    by_tag: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, run_stats: SchedulerStats, *, tag: str | None = None) -> None:
        """Fold one scheduler run into the cumulative counters."""
        with self._lock:
            self.runs += 1
            self.morsels_dispatched += run_stats.n_tasks
            self.steals += run_stats.steals
            self.retries += run_stats.retries
            self.watchdog_stalls += run_stats.watchdog_stalls
            self.worker_deaths += run_stats.worker_deaths
            self.worker_respawns += run_stats.worker_respawns
            self.reenqueued_tasks += run_stats.reenqueued_tasks
            if tag is not None:
                self.by_tag[tag] = self.by_tag.get(tag, 0) + run_stats.n_tasks
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
                "steals": self.steals,
                "retries": self.retries,
                "watchdog_stalls": self.watchdog_stalls,
                "worker_deaths": self.worker_deaths,
                "worker_respawns": self.worker_respawns,
                "reenqueued_tasks": self.reenqueued_tasks,
                "tagged_queries": len(self.by_tag),
            }


class ExecutionEngine:
    """Morsel-driven parallel executor for E-join operators.

    Args:
        n_threads: worker count; ``None`` uses the configured CPU count.
        morsel_rows: upper bound on rows per morsel; ``None`` uses the
            configured default.
        buffer_budget_bytes: Figure 7 budget of the joins run on this
            engine (a join's own ``buffer_budget_bytes=`` overrides it);
            ``None`` uses the configured default.
    """

    def __init__(
        self,
        *,
        n_threads: int | None = None,
        morsel_rows: int | None = None,
        buffer_budget_bytes: int | None = None,
    ) -> None:
        config = get_config()
        self.n_threads = (
            cpu_count() if n_threads is None else max(1, int(n_threads))
        )
        self.morsel_rows = (
            config.default_morsel_rows if morsel_rows is None else morsel_rows
        )
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
        self.watchdog = WatchdogPolicy.from_config()

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
        scheduler run stays inline, as a scan join's blocks do.
        """
        morsels = self.morsels_for(n_rows, row_work=row_work)
        if row_work is not None and not worth_scheduling(n_rows * row_work):
            return [task(m) for m in morsels]  # not worth one scheduler run
        return self.run([lambda m=m: task(m) for m in morsels])

    def run(self, tasks: Sequence[Callable[[], object]]) -> list:
        """Schedule an arbitrary ordered task batch on the engine's workers.

        Used by operators whose natural work unit is not a tuple range
        (e.g. the tensor join's left GEMM blocks).  Results keep task
        order.
        """
        run_stats = SchedulerStats()
        scheduler = WorkStealingScheduler(self.n_threads)
        # Bind the retry policy to this run: the ambient query scope's
        # deadline and per-query budget (opened by the service on this
        # thread) bound backoff, and its tag attributes the run; a
        # standalone run gets its own budget and no tag.
        scope = current_scope() or QueryScope()
        bound = self.retry_policy.bind(
            deadline=scope.deadline, budget=scope.retry_budget()
        )
        # The span lives on the *dispatching* thread — the one carrying
        # the ambient query trace; worker threads never see the scope,
        # which is fine because the run's stats summarize their morsels.
        with span("engine.run") as sp:
            results = scheduler.run(
                tasks, stats=run_stats, retry=bound, watchdog=self.watchdog
            )
            sp.set(
                tag=scope.tag,
                morsels=run_stats.n_tasks,
                steals=run_stats.steals,
                retries=run_stats.retries,
            )
        self.stats.record(run_stats, tag=scope.tag)
        return results


def serial_engine() -> ExecutionEngine:
    """A fresh single-threaded engine (deterministic inline execution)."""
    return ExecutionEngine(n_threads=1)
