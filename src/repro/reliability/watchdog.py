"""Watchdog policy for worker self-healing.

The mechanism lives in :class:`~repro.engine.scheduler.WorkStealingScheduler`
(heartbeats, respawn, re-enqueue); this module holds the *policy* — how
long a silent worker is tolerated, how often to look, how many respawns
one run may consume; the counters the health snapshot reports are the
scheduler's own (``SchedulerStats``).

Two properties keep the watchdog (nearly) free when nothing is wrong:

* the scheduler's main thread blocks on a completion event, so a normal
  run wakes it exactly once — polling only happens while at least one
  worker is actually late;
* heartbeats are plain (unlocked) per-slot timestamp writes on the hot
  path; the watchdog reads them racily, which is safe because a stale
  read can only *delay* detection by one poll interval, never corrupt
  state.
"""

from __future__ import annotations

from ..config import get_config


class WatchdogPolicy:
    """Stall tolerance and respawn limits for one engine's runs."""

    __slots__ = ("stall_s", "max_respawns")

    def __init__(self, stall_s: float = 5.0, max_respawns: int = 8) -> None:
        self.stall_s = max(0.0, float(stall_s))
        self.max_respawns = max(0, int(max_respawns))

    @classmethod
    def from_config(cls) -> "WatchdogPolicy":
        return cls(get_config().watchdog_stall_s)

    @property
    def enabled(self) -> bool:
        """``stall_s=0`` disables stall detection."""
        return self.stall_s > 0.0

    @property
    def poll_s(self) -> float:
        """How often the scheduler re-checks heartbeats while waiting.

        A quarter of the stall tolerance (capped at 50 ms) gives the
        watchdog ≤1.25× detection latency without busy-waiting.
        """
        return min(self.stall_s / 4.0, 0.05) if self.enabled else 0.05
