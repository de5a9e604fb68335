"""Ablation: the model-cost axis M of the cost model (Section IV-A).

The paper notes the model cost "can span from random access to a lookup
table ... to expensive computations over deep neural networks", and that
under model-as-a-service pricing the prefetch optimization "conversely
results in monetary savings".  This bench dials a simulated per-item model
latency and shows that:

* the naive join's cost grows with M at a |R|*|S| rate while the prefetch
  join grows at |R|+|S| — the gap widens linearly in M,
* the model-call counters directly give the per-join monetary cost under
  a pay-per-embedding price.
"""

from __future__ import annotations

from repro.core import ThresholdCondition, naive_nlj, prefetch_nlj
from repro.embedding import HashingEmbedder

from _report import FigureReport, time_call
from _smoke import pick

N_LEFT = 40
N_RIGHT = 40
CONDITION = ThresholdCondition(0.8)
#: Simulated per-embedding latencies (seconds): lookup table -> deep model.
LATENCIES = pick([0.0, 0.0001, 0.0005], [0.0, 0.0001])
#: Pretend price per embedding call (USD), for the monetary column.
PRICE_PER_CALL = 0.0001


def _words(n: int, prefix: str) -> list[str]:
    return [f"{prefix}-{i}" for i in range(n)]


def test_model_cost_report():
    report = FigureReport(
        "ablation_model_cost",
        "model cost M sweep: naive pays |R||S| calls, prefetch |R|+|S| "
        f"(pay-per-embedding at ${PRICE_PER_CALL}/call)",
        ("latency_ms", "strategy", "time_ms", "model_calls", "cost_usd"),
    )
    naive_times = []
    prefetch_times = []
    for latency in LATENCIES:
        left = _words(N_LEFT, "l")
        right = _words(N_RIGHT, "r")
        naive_model = HashingEmbedder(dim=32, simulated_latency_s=latency)
        naive_result, t_naive = time_call(
            naive_nlj, left, right, naive_model, CONDITION
        )
        prefetch_model = HashingEmbedder(dim=32, simulated_latency_s=latency)
        prefetch_result, t_prefetch = time_call(
            prefetch_nlj, left, right, CONDITION, model=prefetch_model
        )
        for name, result, seconds in (
            ("naive", naive_result, t_naive),
            ("prefetch", prefetch_result, t_prefetch),
        ):
            report.add(
                latency * 1000,
                name,
                seconds * 1000,
                result.stats.model_calls,
                result.stats.model_calls * PRICE_PER_CALL,
            )
        naive_times.append(t_naive)
        prefetch_times.append(t_prefetch)
        # The call-count claim is exact at any latency.
        assert naive_result.stats.model_calls == 2 * N_LEFT * N_RIGHT
        assert prefetch_result.stats.model_calls == N_LEFT + N_RIGHT
    # Raising M adds |R|*|S| latency units to the naive join but only
    # |R|+|S| to the prefetch join: the *added* cost must be far larger on
    # the naive side (per-call overhead cancels in the difference).
    naive_delta = naive_times[-1] - naive_times[0]
    prefetch_delta = prefetch_times[-1] - prefetch_times[0]
    assert naive_delta > 5 * max(prefetch_delta, 1e-9), (
        f"model-latency increase should hit naive quadratically: "
        f"naive +{naive_delta:.3f}s vs prefetch +{prefetch_delta:.3f}s"
    )
    report.note("monetary column = calls x price: prefetch saves "
                f"{2 * N_LEFT * N_RIGHT - (N_LEFT + N_RIGHT)} calls per join")
    report.emit()
