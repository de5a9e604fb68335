"""The list-major kernel (``repro.index.ivf.score_pairs`` and its two
readers) under a cap task's two phases, against the dense scan join: the
same ids, scores within fp32 rounding (bit for bit where the arithmetic is
exact), ties broken by id."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ThresholdCondition, TopKCondition, tensor_join
from repro.core import caps as caps_module
from repro.core.caps import RUN_CELL_BYTES, STATE_BYTES, CapPartition, build_caps, cap_join
from repro.index.ivf import IVFFlatIndex, cells_over, kth_scores, score_pairs
from repro.vector.norms import normalize_rows

DIM = 16
SWAP_TOLERANCE = DIM * 2.0**-24


@pytest.fixture(autouse=True)
def small_sources(monkeypatch):
    monkeypatch.setattr(caps_module, "MIN_CAPS", 8)


def clustered(n: int, seed: int, *, spread: float = 0.25) -> np.ndarray:
    """Unit rows around 48 random directions."""
    rng = np.random.default_rng(seed)
    around = normalize_rows(np.random.default_rng(7).standard_normal((48, DIM)))
    noise = rng.standard_normal((n, DIM)) * (spread / DIM**0.5)
    return normalize_rows((around[rng.integers(0, 48, n)] + noise).astype(np.float32))


def copies(n: int, seed: int, *, distinct: int = 12) -> np.ndarray:
    """``n`` rows that are copies of a few sign patterns (entries +-0.25):
    every dot product is a multiple of 1/16, exact in any summation order,
    so whole runs of cells tie at each row's k-th score."""
    patterns = np.random.default_rng(11).choice([-0.25, 0.25], (distinct, DIM))
    return patterns[np.random.default_rng(seed).integers(0, distinct, n)].astype(np.float32)


def assert_dense_answer(got, left, right, condition, *, exact: bool = False) -> None:
    """``got`` (rows, ids, scores) holds the dense join's ids in its order;
    scores within fp32 rounding of its (equal, for ``exact`` rows)."""
    dense = tensor_join(left, right, condition, assume_normalized=True)
    rows, ids, scores = got
    floor = getattr(condition, "min_similarity", None)
    if floor is not None:
        keep = scores >= floor
        rows, ids, scores = rows[keep], ids[keep], scores[keep]
    assert np.array_equal(rows, dense.left_ids)
    assert np.array_equal(ids, dense.right_ids)
    apart = np.abs(scores - dense.scores).max(initial=0.0)
    assert apart <= (0.0 if exact else SWAP_TOLERANCE)


def phase_one(part, queries, rows, caps, k):
    """A cap task's phase 1 as ``cap_join`` runs it: the rows' nearest caps
    scored into one buffer, each row's k-th score, the cells at or over it."""
    pairs = score_pairs(part.packed(), part.starts, queries, rows, caps)
    floors = kth_scores(pairs, len(queries), k)
    return floors, cells_over(part.ids, part.starts, pairs, floors)


def test_a_pair_owns_its_cells_of_the_buffer():
    """Pair ``p`` (grouped by list, rows in order within one) owns
    ``flat[held[p]:held[p + 1]]``: its row against its list's members."""
    rng = np.random.default_rng(5)
    packed, queries = clustered(300, 1), clustered(20, 2)
    starts = np.array([0, 40, 40, 130, 300])  # list 1 is empty
    rows, lists = rng.integers(0, 20, 50), rng.integers(0, 4, 50)
    got_rows, got_lists, held, flat = score_pairs(packed, starts, queries, rows, lists)
    order = np.argsort(lists, kind="stable")
    assert np.array_equal(got_rows, rows[order]) and np.array_equal(got_lists, lists[order])
    for p, (r, c) in enumerate(zip(got_rows, got_lists)):
        want = packed[starts[c] : starts[c + 1]] @ queries[r]
        np.testing.assert_allclose(flat[held[p] : held[p + 1]], want, atol=SWAP_TOLERANCE)
    empty = score_pairs(packed, starts, queries, rows[:0], lists[:0])
    assert len(empty[3]) == 0 and empty[2].tolist() == [0]
    none = cells_over(np.arange(300), starts, empty, np.zeros(20))
    assert all(len(column) == 0 for column in none)


@pytest.mark.parametrize("k", [1, 5, 8])
@pytest.mark.parametrize("rows", ["clustered", "copies"])
def test_phase_one_floors_are_the_kth_of_a_dense_topk(rows, k):
    """Each row's floor is the k-th best of a dense top-k over the cells
    its nearest caps hold (equal where the arithmetic is exact), and
    phase 1 keeps every cell at or over it, ties included."""
    make = clustered if rows == "clustered" else copies
    left, right = make(120, 3), make(4_000, 4)
    part = build_caps(right)
    assert part is not None
    s = left @ part.centre_rows.T
    pair_rows, pair_caps = caps_module._nearest_caps(s, part.sizes, k)
    floors, (kept_rows, kept_ids, kept_scores) = phase_one(part, left, pair_rows, pair_caps, k)
    dense = np.full((len(left), len(right)), -np.inf, np.float32)
    for r, c in zip(pair_rows, pair_caps):
        members = part.ids[part.starts[c] : part.starts[c + 1]]
        dense[r, members] = right[members] @ left[r]
    kth = -np.sort(-dense, axis=1)[:, k - 1]
    slack = 0.0 if rows == "copies" else SWAP_TOLERANCE
    assert np.abs(floors - kth).max() <= slack
    kept = set(zip(kept_rows.tolist(), kept_ids.tolist()))
    want, may = (np.nonzero(dense >= floors[:, None] + side) for side in (slack, -slack))
    assert set(zip(*(i.tolist() for i in want))) <= kept <= set(zip(*(i.tolist() for i in may)))
    assert np.abs(kept_scores - dense[kept_rows, kept_ids]).max() <= slack
    if rows == "copies":  # several cells sit exactly at the k-th score
        assert (np.count_nonzero(dense == kth[:, None], axis=1) > 1).mean() > 0.5


@pytest.mark.parametrize("k", [3, 8])
def test_ties_at_the_kth_score_go_to_the_smallest_ids(k):
    """A right side of copies of a few rows: every row's k-th score is tied
    many times over, across caps; the cap task keeps the dense join's ids,
    in its order (score desc, id asc), bit for bit."""
    left, right = copies(150, 5), copies(4_200, 6)
    part = build_caps(right)
    assert part is not None
    condition = TopKCondition(k)
    scan = cap_join(part, condition, left, np.inf, probe="caps")
    assert scan is not None and scan.probe == "caps"
    assert_dense_answer(scan.triples, left, right, condition, exact=True)
    joined = tensor_join(left, right, condition, assume_normalized=True, caps=part)
    assert joined.stats.extra["cap_tasks"] >= 1
    assert_dense_answer((joined.left_ids, joined.right_ids, joined.scores), left, right,
                        condition, exact=True)


@pytest.mark.parametrize(
    "condition", [TopKCondition(5), TopKCondition(6, min_similarity=0.9), ThresholdCondition(0.9)],
    ids=["topk", "topk-min", "threshold"],
)
def test_a_small_allowance_scores_phase_two_in_several_runs(condition, monkeypatch):
    """An allowance that leaves room for phase 1's strip and no more: phase
    2 scores its pairs in several runs of whole pairs, charges one run beside
    the bound state, and keeps the dense join's answer."""
    left, right = clustered(200, 7, spread=0.4), clustered(4_000, 8, spread=0.4)
    part = build_caps(right)
    assert part is not None
    calls = []
    score = caps_module.score_pairs
    monkeypatch.setattr(
        caps_module, "score_pairs", lambda *args: calls.append(len(args[3])) or score(*args)
    )
    near_rows, near_caps = caps_module._nearest_caps(left @ part.centre_rows.T, part.sizes, 6)
    strip = 4 * len(left) * int(np.bincount(near_rows, part.sizes[near_caps]).max())
    allowance = STATE_BYTES * len(left) * len(part.radius) + strip  # runs of strip / 26 cells
    scan = cap_join(part, condition, left, allowance)
    assert scan is not None
    assert len(calls[isinstance(condition, TopKCondition):]) > 3  # phase 2's runs
    assert scan.peak_bytes <= allowance
    unbounded = cap_join(part, condition, left, np.inf)
    assert (scan.cells, scan.blocks) == (unbounded.cells, unbounded.blocks)
    if isinstance(condition, TopKCondition):
        assert_dense_answer(scan.triples, left, right, condition)
    else:
        rows, ids, _ = scan.hits
        dense = tensor_join(left, right, condition, assume_normalized=True)
        assert np.array_equal(rows, dense.left_ids) and np.array_equal(ids, dense.right_ids)


def test_a_cap_wider_than_one_run_declines():
    left, right = clustered(200, 7), clustered(4_000, 8)
    part = build_caps(right)
    held = STATE_BYTES * len(left) * len(part.radius)
    narrow = held + 2 * RUN_CELL_BYTES * (int(part.sizes.max()) - 1)
    assert cap_join(part, ThresholdCondition(0.9), left, narrow) is None


def test_rows_whose_nearest_caps_hold_exactly_k():
    """Caps of exactly ``k`` rows each: a row's nearest cap holds its
    phase-1 cells and no more, so its floor is the lowest of them."""
    k, rng = 8, np.random.default_rng(9)
    around = normalize_rows(rng.standard_normal((512, DIM)))
    noise = 0.02 * rng.standard_normal((512 * k, DIM))
    right = normalize_rows((around.repeat(k, axis=0) + noise).astype(np.float32))
    left = normalize_rows((around[:64] + 0.05 * rng.standard_normal((64, DIM))).astype(np.float32))
    starts = np.arange(0, len(right) + 1, k)  # cap c: rows [8c, 8c + 8), one cluster
    members = right.astype(np.float64).reshape(-1, k, DIM)
    centres = members.sum(axis=1)
    centres /= np.linalg.norm(centres, axis=1, keepdims=True)
    radius = np.einsum("cmd,cd->cm", members, centres).min(axis=1)
    part = CapPartition(right, np.arange(len(right)), starts, centres, np.clip(radius, -1.0, 1.0))
    s = left @ part.centre_rows.T
    pair_rows, pair_caps = caps_module._nearest_caps(s.copy(), part.sizes, k)
    assert np.array_equal(pair_rows, np.arange(len(left)))  # one cap, k rows, a row
    floors, first = phase_one(part, left, pair_rows, pair_caps, k)
    assert np.array_equal(np.bincount(first[0], minlength=len(left)), np.full(len(left), k))
    lowest = [min(right[starts[c] : starts[c + 1]] @ left[r]) for r, c in enumerate(pair_caps)]
    np.testing.assert_allclose(floors, lowest, atol=SWAP_TOLERANCE)
    scan = cap_join(part, TopKCondition(k), left, np.inf, probe="caps")
    assert_dense_answer(scan.triples, left, right, TopKCondition(k))


def test_k_at_least_the_candidates_keeps_them_all():
    """``k >= n``: a cap task declines (the join runs dense), and a list
    probe whose rows hold fewer than ``k`` cells has a ``-inf`` floor and
    answers every candidate, best first."""
    left, right = clustered(40, 11), clustered(4_000, 12)
    part = build_caps(right)
    assert cap_join(part, TopKCondition(len(right)), left, np.inf, probe="caps") is None
    joined = tensor_join(left, right, TopKCondition(len(right) + 1), assume_normalized=True,
                         caps=part)
    assert joined.stats.extra["cap_tasks"] == 0 and len(joined) == len(left) * len(right)
    pairs = score_pairs(part.packed(), part.starts, left, np.arange(len(left)),
                        np.zeros(len(left), np.int64))
    assert (kth_scores(pairs, len(left), int(part.sizes[0]) + 1) == -np.inf).all()
    index = IVFFlatIndex(DIM, nlist=4, nprobe=4, kmeans_iters=2, seed=13)
    index.add(right[:300])
    for query, found in zip(left[:3], index.search_batch(left[:3], 400, assume_normalized=True)):
        exact = right[:300] @ query
        assert sorted(found.ids.tolist()) == list(range(300))
        best_first = np.lexsort((found.ids, -found.scores))
        assert np.array_equal(best_first, np.arange(300))
        np.testing.assert_allclose(found.scores, exact[found.ids], atol=SWAP_TOLERANCE)


def test_a_threshold_task_with_no_pairs_answers_empty():
    """A floor over every bound keeps no ``(row, cap)`` pair: phase 2 scores
    nothing, and the task answers no hits at the cost of its centre
    products alone."""
    left, right = clustered(30, 13), clustered(4_000, 14)
    part = build_caps(right)
    for floor in (1.5, np.full(len(left), 1.5, np.float32)):
        scan = cap_join(part, floor, left, np.inf, probe="caps")
        assert scan is not None and scan.probe == "caps"
        assert all(len(column) == 0 for column in scan.hits)
        assert (scan.blocks, scan.cells) == (0, len(left) * len(part.radius))
