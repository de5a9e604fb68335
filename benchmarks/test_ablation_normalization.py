"""Ablation: pre-normalized inputs vs on-the-fly normalization.

Section IV-C notes that cosine similarity over *normalized* inputs is a
plain dot product.  An engine can therefore normalize embeddings once at
storage/prefetch time and skip per-join normalization.  This ablation
quantifies the saving for the tensor join — a design choice DESIGN.md
calls out (it motivates storing unit vectors in the EmbeddingStore and
vector indexes).
"""

from __future__ import annotations

from repro.bench import FigureReport, time_call
from repro.core import ThresholdCondition, tensor_join
from repro.vector import normalize_rows
from repro.workloads import random_vectors

from _smoke import pick

DIM = 100
CONDITION = ThresholdCondition(0.9)
SIZES = pick([(2_000, 2_000), (6_000, 6_000)], [(200, 200)])


def test_ablation_report():
    report = FigureReport(
        "ablation_normalization",
        "tensor join: normalize per join vs pre-normalized storage",
        ("size", "on_the_fly_ms", "pre_normalized_ms", "saving_%"),
    )
    for n_left, n_right in SIZES:
        raw_l = random_vectors(n_left, DIM, stream=f"abl/l/{n_left}")
        raw_r = random_vectors(n_right, DIM, stream=f"abl/r/{n_right}")
        pre_l, pre_r = normalize_rows(raw_l), normalize_rows(raw_r)
        # best-of-2 so allocator warm-up does not masquerade as a saving
        _, t_fly = time_call(tensor_join, raw_l, raw_r, CONDITION, repeat=2)
        _, t_pre = time_call(
            tensor_join, pre_l, pre_r, CONDITION, assume_normalized=True,
            repeat=2,
        )
        saving = (1 - t_pre / t_fly) * 100 if t_fly > 0 else 0.0
        report.add(f"{n_left}x{n_right}", t_fly * 1000, t_pre * 1000, saving)
        # Results must be identical either way.
        r1 = tensor_join(raw_l, raw_r, CONDITION)
        r2 = tensor_join(pre_l, pre_r, CONDITION, assume_normalized=True)
        assert r1.pairs() == r2.pairs()
    report.note("normalization is O((|R|+|S|)*d) vs the O(|R|*|S|*d) join; "
                "the saving shrinks as the join grows")
    report.emit()
