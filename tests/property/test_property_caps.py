"""Property tests for the cap bound (``repro.core.caps``).

The fp32 bound test is one centre GEMM plus a rank-2 update, within
``fp32_dot_slack`` of zero.  Whatever the inputs, it must keep every
``(row, cap)`` pair the float64 rule ``ub >= floor - margin`` keeps —
caps reaching round the sphere (``m <= -f``), singleton caps (``m = 1``),
floors over 1 or under 0, pairs exactly at the floor — and never a cap
already probed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TopKCondition, tensor_join
from repro.core import caps as caps_module
from repro.core.caps import CapPartition, build_caps
from repro.core.scan import PRESCREEN_MARGIN
from repro.engine import ExecutionEngine
from repro.vector.norms import normalize_rows


def float64_keeps(queries, centres, radius, floors) -> np.ndarray:
    """The float64 rule: ``ub(s, m) >= f - margin``, ``ub`` the cone bound."""
    s = np.clip(queries.astype(np.float64) @ centres.T, -1.0, 1.0)
    m = radius[None, :]
    ub = np.where(s >= m, 1.0, s * m + np.sqrt(1.0 - s * s) * np.sqrt(1.0 - m * m))
    return ub >= (np.broadcast_to(floors, (len(queries),)) - PRESCREEN_MARGIN)[:, None]


@st.composite
def bound_tests(draw):
    dim = draw(st.sampled_from([3, 16, 128]))
    n_q = draw(st.integers(min_value=1, max_value=12))
    n_caps = draw(st.integers(min_value=1, max_value=24))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
    queries = normalize_rows(rng.standard_normal((n_q, dim)).astype(np.float32))
    centres = rng.standard_normal((n_caps, dim))
    # Some caps sit (nearly) opposite a query.
    opposite = rng.random(n_caps) < 0.3
    centres[opposite] = -queries[rng.integers(0, n_q, opposite.sum())] + 1e-4 * centres[opposite]
    centres /= np.linalg.norm(centres, axis=1, keepdims=True)
    radius = rng.choice(
        np.array([1.0, -1.0, 0.0, 0.999, -0.999, 0.5, -0.5, np.nextafter(1.0, 0.0)]), n_caps
    )
    drawn = rng.random(n_caps) < 0.5
    radius[drawn] = rng.uniform(-1.0, 1.0, drawn.sum())
    floors = rng.choice(
        np.array([1.5, 1.0 + 2 * PRESCREEN_MARGIN, 1.0, 0.0, -0.3, -1.0, -2.0, 0.9]), n_q
    )
    drawn = rng.random(n_q) < 0.4
    floors[drawn] = rng.uniform(-1.2, 1.2, drawn.sum())
    # A row whose floor is exactly one of its pairs' bound.
    s = np.clip(queries.astype(np.float64) @ centres.T, -1.0, 1.0)
    r, c = rng.integers(0, n_q), rng.integers(0, n_caps)
    m = radius[c]
    ub = 1.0 if s[r, c] >= m else s[r, c] * m + np.sqrt(1 - s[r, c] ** 2) * np.sqrt(1 - m * m)
    floors[r] = ub + PRESCREEN_MARGIN
    probed = rng.random((n_q, n_caps)) < draw(st.sampled_from([0.0, 0.2]))
    scalar = draw(st.booleans())
    return queries, centres, radius, floors[0] if scalar else floors, probed


@given(case=bound_tests())
@settings(max_examples=300, deadline=None)
def test_fp32_bound_keeps_every_pair_the_float64_rule_keeps(case):
    queries, centres, radius, floors, probed = case
    n_caps, dim = centres.shape
    part = CapPartition(
        np.zeros((n_caps, dim), np.float32), np.arange(n_caps), np.arange(n_caps + 1),
        centres, radius,
    )
    s = queries @ part.centre_rows.T
    s[probed] = -np.inf
    rows, caps = caps_module.keep(part, s, floors)
    assert np.all(np.diff(rows) >= 0)
    kept = np.zeros_like(probed)
    kept[rows, caps] = True
    want = float64_keeps(queries, centres, radius, np.asarray(floors, np.float64)) & ~probed
    assert not (want & ~kept).any()
    assert not (kept & probed).any()
    over = np.broadcast_to(np.asarray(floors), (len(queries),)) - PRESCREEN_MARGIN > 1.0
    assert not kept[over].any()


@pytest.fixture()
def small_sources(monkeypatch):
    monkeypatch.setattr(caps_module, "MIN_CAPS", 8)


def test_a_thousand_row_left_side_is_one_cap_task(small_sources):
    """``ejoin_vectors``' shape, scaled down: 1,000 left rows on a 2-thread
    engine are cut into dense blocks, yet their bound state fits one cap
    task — which equals the dense join."""
    rng = np.random.default_rng(3)
    centres = normalize_rows(rng.standard_normal((64, 32)).astype(np.float32))

    def clustered(n):
        noise = rng.standard_normal((n, 32)).astype(np.float32) * 0.05
        return normalize_rows(centres[rng.integers(0, 64, n)] + noise)

    left, right = clustered(1_000), clustered(8_000)
    part = build_caps(right)
    assert part is not None
    engine = ExecutionEngine(n_threads=2)
    condition = TopKCondition(8)
    dense = tensor_join(left, right, condition, assume_normalized=True, engine=engine)
    capped = tensor_join(left, right, condition, assume_normalized=True, engine=engine, caps=part)
    assert dense.stats.extra["batch_shape"][0] < len(left)  # more than one dense block
    assert capped.stats.extra["cap_tasks"] == 1
    assert np.array_equal(dense.left_ids, capped.left_ids)
    exact = left.astype(np.float64) @ right.astype(np.float64).T
    moved = dense.right_ids != capped.right_ids
    rows = dense.left_ids[moved]
    apart = np.abs(exact[rows, dense.right_ids[moved]] - exact[rows, capped.right_ids[moved]])
    assert (apart <= 32 * 2.0**-24).all()
    assert np.abs(capped.scores - dense.scores).max() <= 32 * 2.0**-24
