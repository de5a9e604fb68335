"""Cap bounds: skip the right rows of an exact scan join that cannot match.

A *cap partition* of the right side's unit rows proves rows out before the
GEMM scores them (Ram & Gray's cone trees, KDD 2012).  Cap ``c`` has a unit
centre and ``m``, its lowest member cosine; a unit query with ``s = q . c``
scores no member above ``ub = 1`` if ``s >= m``, else ``s m + sqrt(1 - s^2)
sqrt(1 - m^2)`` = ``cos(max(0, alpha - theta))``.  A cap is kept when ``ub``
reaches ``f = floor - margin``, tested in fp32 as one centre product plus a
rank-2 update (:func:`keep`).  A join task probes cap by cap on a
cap-ordered copy of the rows, made by the first such task: a threshold task
scores the ``(row, cap)`` pairs that reach its floor; a top-k task each
row's nearest caps until they hold ``k`` rows, then every cap reaching its
k-th score (by one partition).  Each phase scores its pairs into one flat
buffer, one GEMM a cap (``index.ivf.score_pairs``), and keeps the cells
at a row's floor by one compare.  A task of a few rows — a
served selection — takes one pass a row from the unit rows
(:func:`probe_by_rows`): a centre GEMV, a top-k row's nearest
:data:`NEIGHBOURHOOD` rows scored for its floor, one bound test, one gather
and GEMV.  The bound is on the exact score and a task scores its kept cells
from the unit rows, so the fp32 and int8 scan joins share one
partition.  Each constant quotes ``tools/sweep_blocks.py --caps`` (one
thread)."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from ..config import get_config
from ..index.ivf import (
    RUN_CELLS, cells_over, kmeans, kth_scores, nearest_centroids, runs, score_pairs,
)
from .conditions import ThresholdCondition, TopKCondition
from .scan import PRESCREEN_MARGIN, ScanResult, fold_topk, fp32_dot_slack

#: Rows a cap holds on average: ``ejoin_vectors``-shaped rows keep 0.65% of
#: a top-8 join's cells at 32 (420 ms to build; bounds outgrow a 500-row
#: task, dense 62 ms), 0.69% at 64 (162 ms, join 15.0 ms), 1.8% at 96 (104, 14.0).
ROWS_PER_CAP = 64

#: Rows the k-means samples per cap: 8 keep 1.26% (133 ms), 32 0.69% (246).
SAMPLE_PER_CAP = 16

#: Its Lloyd iterations: 1 keeps 1.31%, 5 and 10 no fewer (219 / 348 ms).
CAP_ITERS = 3

#: A task whose bounds keep more of its cells joins dense, and a source whose
#: own rows' do at their 8th-best has no caps (uniform: 100%, 440 vs 62 ms).
DECLINE_SHARE = 0.25

#: Caps a source needs (4,096 rows) before a partition repays its build.
MIN_CAPS = 64

#: Dense selections a source serves before its caps are built, off-thread:
#: about one build's worth.  One build over one dense top-10 / threshold
#: selection (one BLAS thread, 256 clustered 128-d centres) is 0.73 s /
#: 2.1 ms = 345 on ``serve_scan``'s 150,000 rows and 3.0 / 0.11 ms = 27 on
#: 4,096; the larger, so no source up to 150,000 rows builds before its
#: misses have paid for it.  A build that copies no rows (measured from
#: gathered members) is no cheaper: on a slower 2-vCPU Xeon, 2.27-2.80 s
#: against the copying build's 2.44-2.69 s, over 8.3-11.3 ms a selection
#: (250-290, min of 3 builds and of 40 selections, alternated runs).
SELECTIONS_PER_BUILD = 345

#: Rows a top-k row scores from its nearest caps (``k`` at least) for the
#: k-th score its bound test keeps caps at.  Median member cells a served
#: top-10 scores: 588 / 587 / 586 / 1,102 at 64 / 128 / 256-512 / 1,024 on
#: ``serve_scan``'s rows (~590 a cluster), 157 / 157 / 311 / 587 at 64 /
#: 128 / 256 / 512 on ``ejoin_vectors``' (~156); 732-1,232 at ``k + 32``.
NEIGHBOURHOOD = 128

#: Query rows a task probes row by row at most, ms rows / caps: a top-10 on
#: ``serve_scan``'s rows 0.58 / 0.92 at 2, 1.11 / 1.20 at 4, 2.24 / 1.68 at
#: 8; a threshold 0.36 / 0.50, 0.70 / 0.66, 1.37 / 1.01.
ROW_MAJOR_ROWS = 4

#: Bytes a ``(left row, cap)`` pair holds in the bound test (fp32 cosine,
#: its rank-2 update, a mask byte) and a phase-2 cell in its run (a score in
#: the run's buffer, the row's floor beside it, a mask byte; and 4 spare).
STATE_BYTES, RUN_CELL_BYTES = 9, 13


@dataclass(frozen=True)
class CapPartition:
    """Unit rows grouped by cap: cap ``c``'s ``sizes[c]`` members are rows
    ``ids[starts[c]:starts[c + 1]]`` of ``unit``, the source's own unit-row
    matrix (not a copy), with float64 unit ``centres[c]`` and ``radius[c]``
    its lowest member cosine ``m``; :func:`keep` multiplies the fp32
    ``centre_rows`` (contiguous) and ``reach`` (``[m, sqrt(1 - m^2)]``).
    ``kept_share`` is the share of a top-8 join's cells the bounds kept when
    :func:`build_caps` checked the partition on its own rows.  The first
    cap-major probe makes the cap-ordered copy (:meth:`packed`) under
    ``lock``, a planner's partition's source build lock: a source that only
    serves selections never holds it."""

    unit: np.ndarray
    ids: np.ndarray
    starts: np.ndarray
    centres: np.ndarray
    radius: np.ndarray
    kept_share: float = 0.0
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)
    centre_rows: np.ndarray = field(init=False, repr=False, compare=False)
    reach: np.ndarray = field(init=False, repr=False, compare=False)
    sizes: np.ndarray = field(init=False, repr=False, compare=False)
    _packed: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m, fp32 = self.radius, np.float32
        object.__setattr__(self, "centre_rows", np.ascontiguousarray(self.centres, fp32))
        object.__setattr__(self, "reach", np.column_stack((m, np.sqrt(1 - m * m))).astype(fp32))
        object.__setattr__(self, "sizes", np.diff(self.starts))

    def packed(self) -> np.ndarray:
        """The members cap after cap (cap ``c`` is ``packed()[starts[c]:
        starts[c + 1]]``), copied from ``unit`` once."""
        if self._packed is None:
            with self.lock:
                if self._packed is None:
                    object.__setattr__(self, "_packed", self.unit[self.ids])
        return self._packed

    def task(self, condition) -> tuple[partial, int]:
        """What ``scan_join(caps=)`` runs: :func:`cap_join` on these caps,
        and the bytes of bound state a left row holds on them."""
        return partial(cap_join, self, condition), STATE_BYTES * len(self.radius)

    def probe_terms(self, condition) -> tuple[int, float] | None:
        """What a top-k join on these caps is priced by, as an exact IVF:
        each left row's centre products and the measured share of the right
        rows it scores; ``None`` for a join that would decline."""
        n = len(self.ids)
        if not isinstance(condition, TopKCondition) or min(condition.k, n) > DECLINE_SHARE * n:
            return None
        return len(self.radius), self.kept_share


def build_caps(unit_rows: np.ndarray) -> CapPartition | None:
    """A source's caps — a seeded sample's spherical :func:`kmeans`, rows to
    their nearest centroid, recentred, measured — or ``None``: no gain.
    Caps are measured on members gathered from ``unit_rows`` (no copy);
    the check counts what a top-8 task on 256 rows scores: each row's
    nearest caps holding 8 rows, and every cap reaching their 8th score."""
    n, n_caps = len(unit_rows), len(unit_rows) // ROWS_PER_CAP
    if n_caps < MIN_CAPS:
        return None
    rng = get_config().rng("caps")
    sample = np.sort(rng.choice(n, min(n, SAMPLE_PER_CAP * n_caps), replace=False))
    centroids = kmeans(unit_rows[sample], n_caps, n_iters=CAP_ITERS, rng=rng)
    assign = nearest_centroids(unit_rows, centroids)
    ids, counts = np.argsort(assign, kind="stable"), np.bincount(assign)
    starts = np.concatenate(([0], np.cumsum(counts[counts > 0])))
    centres, radius = [], []
    for lo, hi in zip(starts[:-1], starts[1:]):
        members = unit_rows[ids[lo:hi]].astype(np.float64)
        # A zero mean stays a zero centre: s = m = 0, a bound of 1.
        centre = members.sum(axis=0)
        centres.append(centre / max(np.linalg.norm(centre), 1e-300))
        radius.append((members @ centres[-1]).min())
    part = CapPartition(unit_rows, ids, starts, np.array(centres), np.clip(radius, -1.0, 1.0))
    check = unit_rows[rng.choice(n, min(n, 256), replace=False)]
    s = check @ part.centre_rows.T
    rows, caps = _nearest_caps(s, part.sizes, 8)
    cuts = np.searchsorted(rows, np.arange(len(check) + 1))
    kth = [np.partition(_score(part, q, caps[a:b])[1], -8)[-8]
           for q, a, b in zip(check, cuts, cuts[1:])]
    kept = int(part.sizes[np.append(caps, keep(part, s, np.array(kth, np.float32))[1])].sum())
    if kept > DECLINE_SHARE * len(check) * n:
        return None
    return replace(part, kept_share=kept / (len(check) * n))


def keep(part: CapPartition, s: np.ndarray, floors) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, caps)`` by row whose bound may reach the row's floor: every
    pair the float64 ``ub >= floor - margin`` keeps.  ``s``, the fp32 centre
    cosines (``-inf``: probed already), becomes ``s - reach`` by one rank-2
    update.  A floor over 1 keeps nothing; a cap with ``m <= -f`` reaches
    round the sphere and is kept outright."""
    f = np.asarray(floors, np.float64).reshape(-1) - PRESCREEN_MARGIN
    g = np.minimum(np.maximum(f, -1.0), 1.0)
    s += np.array((-g, np.sqrt(1.0 - g * g)), np.float32).T @ part.reach.T
    f = f if len(f) == len(s) else np.full(len(s), f[0])
    s[f > 1.0] = -np.inf
    low = (f <= -part.radius.min()).nonzero()[0]
    if len(low):
        wide = s[low]
        wide[(part.radius <= -f[low, None]) & (wide > -np.inf)] = np.inf
        s[low] = wide
    kept = (s >= -fp32_dot_slack(part.unit.shape[1])).ravel().nonzero()[0]
    return np.divmod(kept, s.shape[1])


def _nearest_caps(s: np.ndarray, sizes: np.ndarray, need: int):
    """Each row's nearest caps until they hold ``need`` rows, as ``(rows,
    caps)`` sorted by row; their cosines drop to ``-inf``."""
    todo, held, taken = np.arange(len(s)), np.zeros(len(s), np.int64), []
    while len(todo):
        taken.append((todo, np.argmax(s[todo], axis=1)))
        s[taken[-1]] = -np.inf
        held[todo] += sizes[taken[-1][1]]
        todo = todo[held[todo] < need]
    rows, caps = (np.concatenate(column) for column in zip(*taken))
    order = np.argsort(rows, kind="stable")
    return rows[order], caps[order]


def _score(part: CapPartition, q: np.ndarray, caps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``caps``' members gathered from the unit rows, scored by one GEMV."""
    cells = part.sizes[caps]
    ends = cells.cumsum()
    ids = part.ids[(part.starts[caps] - ends + cells).repeat(cells) + np.arange(ends[-1])]
    return ids, part.unit.take(ids, axis=0) @ q


def _nearest(s: np.ndarray, sizes: np.ndarray, need: int) -> np.ndarray:
    """One row's nearest caps, nearest first, until they hold ``need`` rows."""
    j = min(len(s), 4 * -(-need // ROWS_PER_CAP))
    while True:
        near = s.argpartition(len(s) - j)[len(s) - j :]
        near = near[(-s[near]).argsort(kind="stable")]
        held = sizes[near].cumsum()
        if held[-1] >= need or j == len(s):
            return near[: held.searchsorted(need) + 1]
        j = min(len(s), 4 * j)


def probe_by_rows(part: CapPartition, queries, ks, floors, allowance) -> ScanResult | None:
    """One pass a query row, from the unit rows.  Row ``i`` at ``ks[i] >
    0`` is a top-k row: its nearest caps holding :data:`NEIGHBOURHOOD` rows
    are scored, and its floor is their k-th score less ``2 *
    PRESCREEN_MARGIN`` (or ``floors[i]``, a ``min_similarity``, if higher);
    else a threshold row at ``floors[i]``.  The other caps take one bound
    test (:func:`keep`: at a top-k row's floor, a threshold row's less the
    margin); what it keeps is gathered and scored by one GEMV.  A top-k row
    drops only cells under its floor, a margin under its k-th exact score,
    so ``prove_topk`` proves its candidates there.  Returns each row's cells
    at or over its floor (``.triples`` = ``.hits``, by row; a threshold
    row's by id) and ``.floors``; ``None`` by :func:`cap_join`'s rules
    (``k`` or scored cells over :data:`DECLINE_SHARE`, state or a gathered
    block over ``allowance``)."""
    n_q, n, sizes = len(queries), len(part.ids), part.sizes
    held = STATE_BYTES * n_q * len(sizes)
    if held >= allowance or max(ks, default=0) > DECLINE_SHARE * n:
        return None
    member = 4 * (part.unit.shape[1] + 1) + 8  # a gathered row, its score and id
    room, quota, out = allowance - held, DECLINE_SHARE * n_q * n, np.array(floors, np.float32)
    hits, kept, blocks, widest, none = [], 0, 0, 0, (part.ids[:0], np.empty(0, np.float32))

    def take(q: np.ndarray, caps: np.ndarray) -> list | None:
        """``caps``' members scored (``[]``: none), or ``None``: too many."""
        nonlocal kept, blocks, widest
        cells = int(sizes[caps].sum())
        kept, widest = kept + cells, max(widest, cells)
        if kept > quota or member * cells > room:
            return None
        blocks += cells > 0
        return [_score(part, q, caps)] if cells else []

    for row, (q, k) in enumerate(zip(queries, ks)):
        s, parts, floor = part.centre_rows @ q, [], float(out[row])  # a GEMV: no GEMM packing
        if k:
            near = _nearest(s, sizes, max(k, NEIGHBOURHOOD))
            if (parts := take(q, near)) is None:
                return None
            kth = np.partition(parts[0][1], -k)[-k]
            out[row] = max(out[row], kth - np.float32(2 * PRESCREEN_MARGIN))
            s[near] = -np.inf
            floor = float(out[row]) + PRESCREEN_MARGIN  # keep() takes the margin off
        if (more := take(q, keep(part, s[None], floor)[1])) is None:
            return None
        scored = parts + more
        ids, scores = scored[0] if len(scored) == 1 else map(np.concatenate, zip(*scored, none))
        hit = (scores >= out[row]).nonzero()[0]
        if not k:
            hit = hit[ids[hit].argsort(kind="stable")]
        hits.append((ids[hit], scores[hit]))
    ids, scores = hits[0] if n_q == 1 else map(np.concatenate, zip(*hits))
    triples = np.arange(n_q).repeat([len(i) for i, _ in hits]), ids, scores
    return ScanResult(
        triples, triples, blocks=blocks, cells=n_q * len(sizes) + kept,
        peak_bytes=held + member * widest, probe="rows", floors=out,
    )


def cap_join(part: CapPartition, condition, queries: np.ndarray, allowance: float,
             probe: str | None = None) -> ScanResult | None:
    """One left task joined on the caps its bounds keep, as ``scan_candidates``
    leaves cells (``.triples``, ``.hits``), or ``None``: they keep over
    :data:`DECLINE_SHARE`, or the task's state overruns ``allowance`` bytes.
    ``condition`` is a top-k or threshold condition, or a threshold floor per
    query row (a scalar serves every row).  Up to :data:`ROW_MAJOR_ROWS`
    rows probe row by row (:func:`probe_by_rows`, cut to ``k``), more cap
    by cap (phase 2 in runs of whole pairs); ``probe`` (``"rows"`` /
    ``"caps"``) forces the order.  Each charges its widest block (gathered
    members, phase 1's padded strip or a run) beside the bound state."""
    n_q, n, sizes = len(queries), len(part.ids), part.sizes
    topk = isinstance(condition, TopKCondition)
    k, floors = (condition.k, condition.min_similarity) if topk else (0, condition)
    if isinstance(condition, ThresholdCondition):
        floors = condition.threshold
    floors = np.broadcast_to(np.asarray(-np.inf if floors is None else floors, np.float32), (n_q,))
    if (probe or ("rows" if n_q <= ROW_MAJOR_ROWS else "caps")) == "rows":
        scan = probe_by_rows(part, queries, [k] * n_q, floors, allowance)
        if scan is not None and topk:
            scan.triples = scan.hits = fold_topk([scan.triples], n_q, k)
        return scan
    held = STATE_BYTES * n_q * len(sizes)
    if held >= allowance or (topk and min(k, n) > DECLINE_SHARE * n):
        return None
    room = allowance - held
    s = queries @ part.centre_rows.T
    found, kept, blocks, peak = [], 0, 0, 0
    if topk:
        rows, caps = _nearest_caps(s, sizes, min(k, n))
        cells = np.bincount(rows, weights=sizes[caps], minlength=n_q)
        kept, peak = int(cells.sum()), 4 * n_q * int(cells.max(initial=0))  # a padded strip
        if peak > room:
            return None
        pairs = score_pairs(part.packed(), part.starts, queries, rows, caps)
        floors = np.maximum(floors, kth_scores(pairs, n_q, k))
        found, blocks = [cells_over(part.ids, part.starts, pairs, floors)], len(np.unique(caps))
    rows, caps = keep(part, s, floors)
    kept += int(sizes[caps].sum())
    if kept > DECLINE_SHARE * n_q * n:
        return None
    run = max(1, int(min(RUN_CELLS, room // (2 * RUN_CELL_BYTES))))  # a run: < 2 * run cells
    if sizes[caps].max(initial=0) > run:
        return None
    order = np.argsort(caps, kind="stable")  # phase 2: runs of whole pairs, by cap
    rows, caps = rows[order], caps[order]
    ends = np.concatenate(([0], np.cumsum(sizes[caps])))
    cuts = runs(ends, run)
    for a, b in zip(cuts[:-1], cuts[1:]):
        pairs = score_pairs(part.packed(), part.starts, queries, rows[a:b], caps[a:b])
        found.append(cells_over(part.ids, part.starts, pairs, floors))
    peak = max(peak, RUN_CELL_BYTES * int(np.diff(ends[cuts]).max(initial=0)))
    blocks += len(np.unique(caps))
    if topk:
        triples = fold_topk(found, n_q, k)
    else:
        none = rows[:0], rows[:0], np.empty(0, np.float32)
        rows, ids, scores = map(np.concatenate, zip(*found, none))
        order = np.lexsort((ids, rows))
        triples = rows[order], ids[order], scores[order]
    # Centre products count as evaluations; the widest block sits beside the state.
    return ScanResult(
        triples, triples, blocks=blocks, cells=n_q * len(sizes) + kept, peak_bytes=held + peak,
        probe="caps",
    )
