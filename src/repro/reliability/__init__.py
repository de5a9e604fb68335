"""Reliability layer: fault injection, retries, breakers, watchdog.

See ``docs/RELIABILITY.md`` for the fault model and the
exactness-under-retry argument.  The short version: morsels, kernel
calls, and store builds are pure, so every recovery mechanism here
(retry, re-enqueue, plan fallback to the exact path) preserves
bit-identical results — the layer trades latency for availability,
never accuracy.
"""

from .breaker import breakers, reset_breakers
from .faults import active_injector, clear_injector, install_injector, maybe_inject
from .health import ServiceHealth
from .retry import BoundRetry, RetryBudget, RetryPolicy
from .runtime import current_deadline, current_retry_budget, deadline_scope
from .watchdog import WatchdogPolicy

__all__ = [
    "BoundRetry",
    "RetryBudget",
    "RetryPolicy",
    "ServiceHealth",
    "WatchdogPolicy",
    "active_injector",
    "breakers",
    "clear_injector",
    "current_deadline",
    "current_retry_budget",
    "deadline_scope",
    "install_injector",
    "maybe_inject",
    "reset_breakers",
]
