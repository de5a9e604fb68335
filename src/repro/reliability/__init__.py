"""Reliability layer: fault injection, retries, breakers, health.

Breaker state is per engine (:class:`~repro.reliability.breaker.BreakerRegistry`,
owned by each :class:`~repro.query.Engine`); the fault injector is the one
process-wide piece, armed by tests and the chaos shard.

See ``docs/RELIABILITY.md`` for the fault model and the
exactness-under-retry argument.  The short version: morsels, kernel
calls, and store builds are pure, so every recovery mechanism here
(retry, plan fallback to the exact path) preserves
bit-identical results — the layer trades latency for availability,
never accuracy.
"""

from .faults import active_injector, clear_injector, install_injector, maybe_inject
from .health import ServiceHealth
from .retry import BoundRetry, RetryBudget, RetryPolicy

__all__ = [
    "BoundRetry",
    "RetryBudget",
    "RetryPolicy",
    "ServiceHealth",
    "active_injector",
    "clear_injector",
    "install_injector",
    "maybe_inject",
]
