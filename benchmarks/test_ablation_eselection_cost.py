"""Ablation: the E-Selection Cost equation, validated empirically.

Section IV-A: ``Cost(sigma_{E,mu,theta}(R)) = |R| * (A + M + C)`` — linear
in the input cardinality, with the model term M dominating when embeddings
are computed inline.  This bench measures the scan E-selection across
cardinalities and checks linearity, plus the M-vs-(A+C) split by comparing
raw-item selection (pays M) against pre-embedded selection (M = 0).
"""

from __future__ import annotations

import pytest

from repro.core import TopKCondition, eselect
from repro.embedding import HashingEmbedder
from repro.workloads import unit_vectors

from _report import FigureReport, time_call
from _smoke import pick

DIM = 64
SIZES = pick([2_000, 4_000, 8_000, 16_000], [200, 400])
CONDITION = TopKCondition(10)


@pytest.fixture(scope="module")
def model():
    return HashingEmbedder(dim=DIM, seed=29)


def test_eselection_cost_report(model):
    report = FigureReport(
        "ablation_eselection",
        "E-selection cost: linear in |R|, model term dominates inline "
        "embedding (Sec IV-A equation)",
        ("rows", "pre_embedded_ms", "with_model_ms", "model_share_%"),
    )
    times = {}
    for n in SIZES:
        relation = unit_vectors(n, DIM, stream=f"esel/{n}")
        query = unit_vectors(1, DIM, stream="esel/q")[0]
        _, t_vec = time_call(eselect, relation, query, CONDITION, repeat=2)

        items = [f"item-{i}" for i in range(n)]
        _, t_items = time_call(
            eselect, items, "item-0", CONDITION, model=model
        )
        times[n] = t_vec
        share = (1 - t_vec / t_items) * 100 if t_items > 0 else 0.0
        report.add(n, t_vec * 1000, t_items * 1000, share)
    # Linearity: 8x rows should cost < 16x time (well within 2x of linear).
    assert times[SIZES[-1]] < times[SIZES[0]] * (SIZES[-1] // SIZES[0]) * 2
    # Inline model cost dominates the pre-embedded scan.
    report.note("prefetching removes M from the per-query critical path")
    report.emit()
