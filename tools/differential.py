"""One differential for every access path: seeded cases, one float64
oracle, one comparison against the parent checkout.

The paper's E-join rewrites are algebraic equivalences: a plan may move
between access paths (scan, caps, int8, index, coalesced, sharded)
without changing its answer.  Four case families hold that, each a plain
function in :data:`FAMILIES` returning ``(records, complaints)``; a record
is ``{"ids", "scores", "oracle"}`` under ``<family>/<case>``::

    git clone -q . ../parent && git -C ../parent checkout -q <rev>
    python tools/differential.py --parent ../parent
    REPRO_THREADS=1 PYTHONPATH=src python tools/differential.py --emit one.json
    REPRO_THREADS=2 PYTHONPATH=src python tools/differential.py --emit two.json
    cmp one.json two.json

``select``: E-selections under six conditions (threshold, attained
threshold, top-k, + ``min_similarity``, k >= n, a tie past the prescreen
pad) on random, tied, block-edge-duplicated, empty, one-row and NaN
tables, and on two clustered tables of >= 4,096 rows (one with twins and
copies) whose cap partitions are built first, adding a threshold of -1
and a top-k past the caps' decline share; through ``eselect``,
``QueryBuilder.execute``, coalesced groups of 1-8 behind held scan slots,
a 2-shard service and int8 ``quantized_eselect``; the digest covers
ids and scores.  ``scan_join``:
fp32, fp16 and int8 scan joins under six conditions on grid (exact
arithmetic), random, tripled, empty and one-row sides x :data:`MODES`,
every fp32 / int8 join offered the right side's cap partition (kept
on the clustered tables, declined on every other), plus ``auto/`` planner
joins with an IVF index registered, cold and with the caps cached.
``ejoin_keys``: 45 sequences of 12 string E-joins on one engine (Zipf
feeds, two models, the right side re-registered at op 6, a model replaced
at op 9), each also asked of a cold engine.  ``equi_join``: 240 seeded
``QueryBuilder.join`` plans.

The oracle (NumPy float64, no ``repro``) is one, :func:`meets_oracle`: a
selection is a one-row join.  A selection's top-k is the oracle's ids in
order, a threshold's up to rows within ``THRESHOLD_SLACK`` of it; an int8
top-k holds each row's oracle set, two ids trading places only within
``SWAP_TOLERANCE``; every scan join holds its scores within its
representation's error and no pair the oracle puts clearly in or out is
missing or spurious (grid tables: exact).  A string join's ``oracle`` is
"warm ids == cold ids", an equi-join's a nested loop (except where it
feeds an E-join).

``--emit FILE`` writes what must not depend on the thread count and exits
1 on any complaint (stderr).  ``--parent DIR`` runs each checkout's own
``tools/differential.py`` (this file where the parent has none) with
``--raw`` (every score's digest, and the bits ``near`` needs) on that
checkout's ``src/``, and sorts each case by :func:`compare`.  Exit status 1 on a difference or a complaint of this
checkout's.  An exception digests as its type name.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile
import zlib
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DIM, K = 16, 5
#: The budgeted mode's budget *per worker*: a budget is split over the
#: workers, and whether it can hold a row's candidate state must not
#: depend on how many there are.
BUDGET_BYTES = 64 * 1024
#: One fp32 score block of the served selections: 256 rows for one query,
#: 32 for a group of eight — every selection table spans several blocks.
SELECT_BUDGET_BYTES = 1024
#: Engine modes of a scan join: ``ExecutionEngine`` keywords (``None``: no
#: engine); "budget" runs the ``REPRO_THREADS`` engine under
#: ``BUDGET_BYTES`` a worker.
MODES = {"serial": None, "1t": {"n_threads": 1}, "2t": {"n_threads": 2}, "env": {}, "budget": {}}
#: Slack for "clearly above / below": fp32 GEMM rounding at dim 16.
TOLERANCE = 1e-5
#: How far from a threshold an oracle score may lie and still go either way.
THRESHOLD_SLACK = 1e-6
#: How far apart two pairs' float64 scores may be for an int8 top-k,
#: re-ranked in fp32, to order them the other way: a dim-16 dot product's
#: fp32 rounding, ``DIM`` unit roundoffs (~9.5e-7).
SWAP_TOLERANCE = DIM * 2.0**-24
#: One fp32 step of a unit-scale score (cosines live in [-1, 1]): how far
#: apart two GEMMs of different block shapes may leave an emitted score.
ULP = 2.0**-23
#: What the wide clustered table joins on: answers of a few pairs a row.
#: Not ``topk-min``: its 10th place is two pairs 4.4e-8 apart in float64
#: (row 1,270), which the fp32 scores of an int8 join on the caps
#: order the other way, so :func:`meets_oracle`'s set rule cannot hold.
WIDE_CONDITIONS = ("topk",)
#: The auto cases: the planner joins a clustered table with no strategy and
#: an IVF index ``(nlist, nprobe)`` registered on the right side, from a
#: cold engine and after a forced scan cached the right side's caps.  "ivf"
#: probes ``ejoin_vectors``' share of the rows, "fine" fewer rows in many
#: more lists (it misses).  The dense scan wins on the 4,500-row tables;
#: on the 9,000-row ones a cold engine picks the index.
AUTO_INDEXES = {"ivf": (128, 8), "fine": (1024, 4)}
#: A string-join sequence: ops, feed rows, when the right side is
#: re-registered and the second model replaced.
OPS, FEED_ROWS = 12, 30
REREGISTER_AT, REPLACE_AT = 6, 9
MODELS = ("m1", "m2")
KEY_CONDITIONS = {
    "top1": {"top_k": 1},
    "top3": {"top_k": 3},
    "top3-min": {"top_k": 3, "min_similarity": 0.5},
    "k-past-n": {"top_k": 5},  # on the four-row right side
    "thr": {"threshold": 0.55},
}
KEY_PATHS = {
    "auto": {},
    "tensor": {"strategy": "tensor"},
    "parallel": {"strategy": "parallel-tensor"},
    "int8": {"strategy": "tensor-int8"},
    "filtered": {},
    "tensor-left": {"left_on": "emb"},
    "index": {"strategy": "index"},
    "auto-index": {},
}
#: Paths with an index registered on the right side (built over m1).
INDEXED = ("index", "auto-index")
EQUI_CASES = 240
#: ``repro.core.scan.TOPK_PRESCREEN_PAD``: a top-k with ``k`` + this over a
#: quarter of a table's rows makes its caps decline.
TOPK_PAD = 32
#: Clustered select conditions the caps decline: a threshold of -1, and a
#: top-k whose k + TOPK_PAD passes a quarter of the rows.
CAPS_DECLINE = ("thr-all", "topk-decline")


def unit(rows, dtype=np.float64):
    """``rows`` in ``dtype``, scaled to unit norm (zero rows stay zero)."""
    rows = rows.astype(dtype)
    norms = np.linalg.norm(rows, axis=-1, keepdims=True)
    return rows / np.where(norms == 0, 1, norms)


def sha(*arrays) -> str:
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


def pack(array) -> str:
    """An array's bytes as text: how raw records carry scores and pairs."""
    return base64.b64encode(np.ascontiguousarray(array).tobytes()).decode()


def unpack(text: str, dtype) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text), dtype=dtype)


def apart(a, b) -> float:
    """Largest difference between two arrays of fp32 scores."""
    return float(np.abs(a - b).max(initial=0.0))


def oracle_ids(scores, cond):
    """The float64 answer's ``(left ids, right ids)``, in the joins' order
    (a selection is a one-row join).  A top-k ranks scores rounded to
    1e-12, so copies of one row, whose float64 products differ in the last
    bits, tie and go by id."""
    if "threshold" in cond:
        return np.nonzero(scores >= cond["threshold"])
    want = [[], []]
    for i, row in enumerate(scores):
        order = np.lexsort((np.arange(len(row)), -np.round(row, 12)))[: cond["top_k"]]
        if cond.get("min_similarity") is not None:
            order = order[row[order] >= cond["min_similarity"]]
        want[0] += [i] * len(order)
        want[1] += order.tolist()
    return want


def meets_oracle(scores, cond, left_ids, right_ids, swap=0.0) -> bool:
    """Whether an answer is the float64 oracle's.  A threshold's pairs
    ascend and differ from the oracle's only within ``THRESHOLD_SLACK`` of
    the threshold.  A top-k holds each row's set of oracle ids; within it
    two pairs whose oracle scores differ, by no more than ``swap``, may
    trade places (a k past ``n`` orders every row); an exact tie still
    goes to the smaller id."""
    left_ids, right_ids = (np.asarray(ids, dtype=np.int64) for ids in (left_ids, right_ids))
    want_l, want_r = (np.asarray(ids, dtype=np.int64) for ids in oracle_ids(scores, cond))
    width = max(scores.shape[1], 1)
    got, want = left_ids * width + right_ids, want_l * width + want_r
    if "threshold" in cond:
        odd = np.setxor1d(got, want)
        near = np.abs(scores.ravel()[odd] - cond["threshold"]) <= THRESHOLD_SLACK
        return bool(np.all(np.diff(got) > 0) and near.all())
    if not np.array_equal(left_ids, want_l) or len(right_ids) != len(want_r):
        return False
    if not np.array_equal(np.sort(got), np.sort(want)):
        return False
    swapped = right_ids != want_r
    rounded = np.round(scores, 12)
    gap = np.abs(rounded[left_ids, right_ids] - rounded[want_l, want_r])[swapped]
    return bool(((gap > 0) & (gap <= swap)).all())


def misses(out: dict[str, dict], why: str) -> list[str]:
    """A complaint for each record whose oracle is False."""
    return [f"{case}: {why}" for case, got in out.items() if got.get("oracle") is False]


@contextmanager
def small_tasks():
    """Task floors at 1 while a family runs, so the engines cut its small
    joins (``tests/conftest.py::schedule_every_task``)."""
    from repro.vector import select

    saved = select.MIN_TASK_WORK, select.MIN_TASK_ROWS
    select.MIN_TASK_WORK = select.MIN_TASK_ROWS = 1
    try:
        yield
    finally:
        select.MIN_TASK_WORK, select.MIN_TASK_ROWS = saved


# -- select ------------------------------------------------------------------
def _select_tables():
    """name -> (n, DIM) fp32 rows."""
    out = {"empty": np.zeros((0, DIM), np.float32)}
    rng = np.random.default_rng(77)
    out["one"] = rng.standard_normal((1, DIM)).astype(np.float32)
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        out[f"plain{seed}"] = rng.standard_normal((600, DIM)).astype(np.float32)
        ties = rng.standard_normal((500, DIM)).astype(np.float32)
        ties[np.arange(0, 480, 8)] = ties[3]  # 60 copies: ties past the pad
        out[f"ties{seed}"] = ties
        dups = rng.standard_normal((700, DIM)).astype(np.float32)
        for edge in range(32, 700, 32):  # twins on both sides of a block edge
            dups[edge] = dups[edge - 1]
        out[f"dups{seed}"] = dups
    # Clustered tables a cap partition prunes (>= 4,096 rows), one with
    # twins on both sides of every 32nd row and 60 copies of a row.
    out["clustered"] = _clustered(4_096, 70)
    twins = _clustered(4_608, 71)
    twins[np.arange(32, 4_608, 32)] = twins[np.arange(31, 4_607, 32)]
    twins[np.arange(0, 480, 8)] = twins[3]
    out["clustered-twins"] = twins
    return out


def _select_cases(name, rows):
    """``(case id, query vector, esimilar keywords)`` for one table."""
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    queries = [rng.standard_normal(DIM).astype(np.float32)]
    # A stored row as the query: its copies tie at the top exactly.
    queries.append(rows[3 % len(rows)].copy() if len(rows) else queries[0] + 1)
    capped = len(rows) >= 4_096  # a source whose caps are built
    if capped:  # near a cluster, as a served query is
        queries[0] = rows[100] + np.float32(0.05) * queries[0]
    cases = []
    for q, query in enumerate(queries):
        unit_query = query / max(float(np.linalg.norm(query)), 1e-12)
        scores = np.sort(unit(rows, np.float32) @ unit_query) if len(rows) else np.zeros(1)
        conditions = {
            "thr": {"threshold": 0.35},
            "thr-attained": {"threshold": min(1.0, float(scores[-min(7, len(scores))]))},
            "topk": {"top_k": K},
            "topk-min": {"top_k": 2 * K, "min_similarity": 0.3},
            "k-ge-n": {"top_k": len(rows) + 7},
            "topk-wide": {"top_k": 40},
        }
        if capped:  # what the caps keep, and two conditions they decline
            conditions["thr"] = {"threshold": 0.9}
            conditions["topk-min"]["min_similarity"] = 0.95
            # Not k >= n: ordering every row puts two rows whose fp32 exact
            # scores are equal in id order, which the float64 oracle ranks
            # apart (clustered-twins/q0, on the parent as on this checkout).
            del conditions["k-ge-n"]
            conditions["thr-all"] = {"threshold": -1.0}
            conditions["topk-decline"] = {"top_k": len(rows) // 4 - TOPK_PAD + 1}
        cases += [(f"{name}/q{q}/{label}", query, cond) for label, cond in conditions.items()]
    if capped:  # what the caps decline last, so the groups before it run on them
        cases.sort(key=lambda case: case[0].rsplit("/", 1)[1] in CAPS_DECLINE)
    return cases


def selections(raw: bool):
    """``<table>/q<n>/<condition>/<path>`` -> ``{"ids", "oracle"}``."""
    sys.path.insert(0, str(ROOT / "tests"))
    from conftest import _HeldSlots  # the deterministic group former

    from repro.core import ThresholdCondition, TopKCondition, eselect
    from repro.core.quantized_join import QuantizedRelation, quantized_eselect
    from repro.embedding import HashingEmbedder
    from repro.engine import ExecutionEngine
    from repro.obs.capture import result_digest
    from repro.query import Engine
    from repro.relational import Catalog, DataType, Field, Table
    from repro.relational.column import Column
    from repro.service import QueryService

    def table(rows):
        return Table.from_columns([
            Column(Field("id", DataType.INT64), np.arange(len(rows))),
            Column(Field("emb", DataType.TENSOR, dim=DIM), rows),
        ])

    def record(result, rows, query, cond):
        """A selection's or a table's digest, held to the oracle."""
        if isinstance(result, BaseException):
            return {"ids": f"error:{type(result).__name__}"}
        if isinstance(result, Table):
            digest, ids = result_digest(result), result.array("id")
        else:
            digest, ids = sha(result.ids, result.scores), result.ids
        scores = (unit(rows) @ unit(query[None, :])[0])[None, :]
        return {"ids": digest, "oracle": meets_oracle(scores, cond, np.zeros(len(ids)), ids)}

    def outcome(call, rows, query, cond):
        try:
            return record(call(), rows, query, cond)
        except Exception as exc:
            return record(exc, rows, query, cond)

    stores: dict = {}

    def store(name):
        if name not in stores:
            stores[name] = QuantizedRelation.build(tables[name], "int8")
        return stores[name]

    def condition(cond):
        if "threshold" in cond:
            return ThresholdCondition(cond["threshold"])
        return TopKCondition(cond["top_k"], min_similarity=cond.get("min_similarity"))

    tables = _select_tables()
    poisoned = tables["plain0"].copy()
    poisoned[9] = np.nan
    tables["nonfinite-row"] = poisoned
    capped = [name for name in tables if name.startswith("clustered")]
    common = dict(coalesce=True, result_cache_size=0, max_inflight=256)
    served: dict = {}  # table name -> (engine, coalesced, sharded)
    services = []
    complaints = []
    # The clustered tables' engine has no budget, so the caps' bound state
    # fits; their partitions are built before any selection runs.
    for names, budget in (
        ([name for name in tables if name not in capped], SELECT_BUDGET_BYTES), (capped, None),
    ):
        catalog = Catalog()
        for name in names:
            catalog.register(name, table(tables[name]))
        engine = Engine(catalog)
        engine.models.register("m", HashingEmbedder(dim=DIM))
        # Thread count from REPRO_THREADS; near-free dispatch and no row
        # floor so the pool fans out even these tables.
        engine.executor = ExecutionEngine(buffer_budget_bytes=budget)
        engine.cost_params = replace(engine.cost_params, shard_dispatch=1e-9)
        coalesced = QueryService(engine, **common)
        sharded = QueryService(engine, shard_procs=2, **common)
        sharded.shard_pool.min_rows = 1
        services += [coalesced, sharded]
        served.update((name, (engine, coalesced, sharded)) for name in names)
    for name in capped:
        engine = served[name][0]
        if engine.cap_partition_for((name, "emb", "m"), engine.catalog.get(name)) is None:
            complaints.append(f"{name}: the partition declined")

    def build(name, query, cond):
        return served[name][0].query(name).esimilar("emb", query, model="m", **cond)

    def blocker(name):
        def make(i):
            vector = np.random.default_rng(20_000 + i).standard_normal(DIM)
            return build(name, vector.astype(np.float32), {"top_k": 1})
        return make

    out: dict[str, dict] = {}
    prescreens = set()  # what the planner's selections on the caps ran
    bad = np.full(DIM, np.nan, np.float32)
    try:
        for name, rows in tables.items():
            _, coalesced, sharded = served[name]
            cases = list(_select_cases(name, rows))
            grouped = name != "nonfinite-row"
            if not grouped:
                cases = cases[:3]
            alone = []  # served, but never queued into a group
            if name == "plain0":
                alone = [
                    ("nonfinite-query/topk", bad, {"top_k": K}),
                    ("nonfinite-query/thr", bad, {"threshold": 0.35}),
                ]
            for case, query, cond in cases + alone:
                terms = rows, query, cond
                out[f"{case}/eselect"] = outcome(
                    lambda: eselect(rows, query, condition(cond)), *terms
                )
                builder = build(name, query, cond)
                out[f"{case}/execute"] = outcome(builder.execute, *terms)
                if name in capped:
                    prescreens.add(builder.last_report.join_stats[-1].extra.get("prescreen"))
                out[f"{case}/int8"] = outcome(
                    lambda: quantized_eselect(store(name), query, condition(cond)), *terms
                )
                if query is bad or not grouped:
                    # Never queued behind held slots: a NaN query is not
                    # coalesced and a NaN table's scan fails.
                    for label, service in (("coalesced", coalesced), ("sharded", sharded)):
                        out[f"{case}/{label}1"] = outcome(
                            lambda: service.submit(build(name, query, cond)), *terms
                        )
            # Groups of 1..8 in rotation; from the second member on, every
            # other member repeats its predecessor's vector under its own
            # condition.
            size, start = 1, 0
            while grouped and start < len(cases):
                members = [list(c) for c in cases[start : start + size]]
                for i in range(1, len(members), 2):
                    members[i][1] = members[i - 1][1]
                for label, service in (("coalesced", coalesced), ("sharded", sharded)):
                    held = _HeldSlots(service, blocker(name))
                    try:
                        got = held.run_queued([
                            lambda m=m: service.submit(build(name, m[1], m[2]))
                            for m in members
                        ])
                    finally:
                        held.restore()
                    for (case, query, cond), result in zip(members, got):
                        out[f"{case}/{label}{len(members)}"] = record(result, rows, query, cond)
                start, size = start + size, size % 8 + 1
        complaints += misses(out, "not the oracle's")
        coalesced, sharded = served["plain0"][1:]
        if not coalesced.stats_snapshot()["coalescer"]["fallbacks"]:
            complaints.append("no coalesced group rescanned its ties")
        if not sharded.stats_snapshot()["coalescer"]["sharded_groups"]:
            complaints.append("no group ran on the shards")
        # A checkout whose selections report their prescreen ran some on
        # the caps.
        if prescreens - {None} and "caps" not in prescreens:
            complaints.append("no selection of a clustered table ran on its caps")
    finally:
        for service in services:
            service.shutdown()
    return out, complaints


# -- scan_join ---------------------------------------------------------------
def _grid(n, seed):
    """Four +-1 entries a row: unit rows are +-0.5, every dot product a
    multiple of 0.25 — exact in fp16, fp32 and any summation order."""
    rng = np.random.default_rng(seed)
    out = np.zeros((n, DIM), dtype=np.float32)
    for row in out:
        row[rng.choice(DIM, 4, replace=False)] = rng.choice([-1.0, 1.0], 4)
    return out


def _join_tables():
    """name -> (left, right, exact arithmetic?)."""
    rng = np.random.default_rng(424)
    plain = lambda n: rng.standard_normal((n, DIM)).astype(np.float32)  # noqa: E731
    out = {}
    for seed in range(2):
        out[f"grid{seed}"] = (_grid(70, 10 + seed), _grid(330, 20 + seed), True)
        out[f"plain{seed}"] = (plain(150), plain(1300), False)
        out[f"dups{seed}"] = (plain(90), plain(300)[np.arange(900) // 3], False)
    for seed in range(2):
        out[f"clustered{seed}"] = (
            _clustered(200, 30 + seed), _clustered(4_500, 40 + seed), False
        )
    out["clustered-wide"] = (_clustered(3_000, 50), _clustered(4_500, 60), False)
    out["empty-left"] = (plain(0), plain(40), False)
    out["empty-right"] = (plain(40), plain(0), False)
    out["one-left"] = (plain(1), plain(700), False)
    out["one-right"] = (plain(130), plain(1), False)
    return out


def _clustered(n, seed):
    """Unit rows around 48 fixed directions (~0.97 to their own): a right
    side a cap partition prunes."""
    rng = np.random.default_rng(seed)
    around = unit(np.random.default_rng(7).standard_normal((48, DIM)))
    noise = rng.standard_normal((n, DIM)) * (0.25 / DIM**0.5)
    return unit(around[rng.integers(0, 48, n)] + noise).astype(np.float32)


def _join_conditions(scores):
    """label -> condition keywords, placed on this table's own scores."""
    n_right = scores.shape[1]
    ranked = np.sort(scores, axis=1) if scores.size else np.zeros((1, 1))
    conditions = {
        "thr": {"threshold": 0.35},
        "thr-attained": {"threshold": float(ranked[0, -min(3, ranked.shape[1])])},
        "topk": {"top_k": K},
        "topk-min": {"top_k": 2 * K, "min_similarity": 0.3},
        "k-ge-n": {"top_k": n_right + 7},
    }
    if ranked.shape[1] > K + 2:
        # The k at whose place the most rows tie (grid: nearly all).
        ties = [(ranked[:, -k] == ranked[:, -k - 1]).sum() for k in range(1, K + 3)]
        conditions["topk-tied"] = {"top_k": int(np.argmax(ties)) + 1}
    return conditions


def _join_check(scores, cond, exact, slack, left_ids, right_ids, got):
    """Why this answer contradicts the float64 ``scores``, or ``None``."""
    true = scores[left_ids, right_ids]
    if exact:
        want = oracle_ids(scores, cond)
        if not (np.array_equal(left_ids, want[0]) and np.array_equal(right_ids, want[1])):
            return "ids differ from the exact oracle"
        return None if np.array_equal(got, true.astype(np.float32)) else "scores inexact"
    if len(got) and np.abs(got - true).max() > slack:
        return f"score off by {np.abs(got - true).max():.2e}"
    keys = left_ids * max(scores.shape[1], 1) + right_ids
    if len(np.unique(keys)) != len(keys):
        return "duplicate pairs"
    if (np.diff(left_ids) < 0).any():
        return "left ids not ascending"
    floor = cond.get("threshold", cond.get("min_similarity"))
    if floor is not None and (true < floor - slack).any():
        return "a pair clearly under the floor"
    held = np.zeros(scores.shape, dtype=bool)
    held[left_ids, right_ids] = True
    if "threshold" in cond:
        missing = (scores >= floor + slack) & ~held
    else:
        k = min(cond["top_k"], scores.shape[1])
        kth = np.sort(scores, axis=1)[:, -k] if k else np.zeros(len(scores))
        missing = (scores >= kth[:, None] + slack) & ~held
        if floor is not None:
            missing &= scores >= floor + slack
        if floor is None and (np.bincount(left_ids, minlength=len(scores)) != k).any():
            return "a row without its k pairs"
    return "a pair clearly owed is missing" if missing.any() else None


@small_tasks()
def scan_joins(raw: bool):
    """``<table>/<condition>/<representation>/<mode>`` and
    ``auto/<index>/<table>/<condition>/<cold|cached>/<mode>`` -> ``{"ids",
    "scores", "oracle"}``; ``scores`` only where they must not depend on
    how the work was cut, but under ``raw``.  ``raw`` adds the fp32 bits
    of GEMM-emitted scores, the cap tasks run and the answer's pairs where
    :func:`_join_near` needs them."""
    from repro.core import ThresholdCondition, TopKCondition, tensor_join
    from repro.core.caps import build_caps
    from repro.core.precision import precision_error_bound, tensor_join_fp16
    from repro.core.quantized_join import QuantizedRelation, quantized_tensor_join
    from repro.engine import ExecutionEngine
    from repro.vector.norms import normalize_rows

    env_threads = ExecutionEngine().n_threads  # REPRO_THREADS
    out: dict[str, dict] = {}
    complaints: list[str] = []
    for name, (left, right, exact) in _join_tables().items():
        scores = unit(left) @ unit(right).T
        store = QuantizedRelation.build(right, "int8") if len(right) else right
        offered = {"caps": build_caps(normalize_rows(right)) if len(right) else None}
        joins = {
            "fp32": (tensor_join, right, offered, TOLERANCE),
            "fp16": (tensor_join_fp16, right, {}, precision_error_bound(DIM)),
            # Default settings: every top-k row proved or rescanned.
            "int8": (quantized_tensor_join, store, {"method": "int8", **offered}, TOLERANCE),
        }
        clustered = name.startswith("clustered")
        if clustered:
            del joins["fp16"]
        for label, cond in _join_conditions(scores).items():
            if name == "clustered-wide" and label not in WIDE_CONDITIONS:
                continue
            condition = (
                ThresholdCondition(cond["threshold"]) if "threshold" in cond
                else TopKCondition(cond["top_k"], min_similarity=cond.get("min_similarity"))
            )
            for representation, (join, right_side, keywords, slack) in joins.items():
                for mode, engine_keywords in MODES.items():
                    case = f"{name}/{label}/{representation}/{mode}"
                    engine = None if engine_keywords is None else ExecutionEngine(**engine_keywords)
                    budget = BUDGET_BYTES * env_threads
                    shape = {"buffer_budget_bytes": budget} if mode == "budget" else {}
                    try:
                        got = join(left, right_side, condition, engine=engine, **keywords, **shape)
                    except Exception as exc:
                        out[case] = {"ids": f"error:{type(exc).__name__}"}
                        continue
                    # A clustered table's int8 scores come from cap GEMMs as
                    # its fp32 scores do: only the re-rank's are stable.
                    stable = exact or (representation == "int8" and not clustered)
                    ids = got.left_ids.astype(np.int64), got.right_ids.astype(np.int64)
                    record = out[case] = {"ids": sha(*ids)}
                    if stable or raw:
                        record["scores"] = sha(got.scores)
                    cap_tasks = got.stats.extra.get("cap_tasks", 0)
                    if "caps" in keywords and cap_tasks and not clustered:
                        complaints.append(f"{case}: an existing table's partition did not decline")
                    if raw and not stable:
                        record["bits"] = pack(got.scores.astype(np.float32))
                    if raw and "caps" in keywords:
                        record["caps"] = cap_tasks
                    if raw and clustered and len(got) <= 100_000:
                        # What _join_near needs of an answer on the caps.
                        record["pairs"] = [pack(side) for side in ids]
                        record["truth"] = pack(scores[ids])
                        record["floor"] = cond.get("threshold")
                    why = _join_check(
                        scores, cond, exact, slack, got.left_ids, got.right_ids, got.scores,
                    )
                    if representation == "int8" and "top_k" in cond:
                        record["oracle"] = meets_oracle(
                            scores, cond, got.left_ids, got.right_ids, SWAP_TOLERANCE
                        )
                        if not record["oracle"]:
                            why = why or "ids / order differ from the oracle"
                    if why:
                        complaints.append(f"{case}: {why}")
                    # Survivors of a tie-heavy block are data-dependent and
                    # not reserved for (TopKReducer.state_bytes_per_row): the
                    # budget is checked where scores do not tie.
                    if shape and not name.startswith(("grid", "dups")) and (
                        got.stats.extra.get("peak_intermediate_bytes", 0)
                        > shape["buffer_budget_bytes"]
                    ):
                        complaints.append(f"{case}: over the buffer budget")
    _auto_records(out, complaints, raw)
    return out, complaints


def _auto_tables() -> dict:
    tables = _join_tables()
    tables = {name: tables[name] for name in ("clustered0", "clustered1")}
    for seed in range(2):
        tables[f"clustered-ivf{seed}"] = (
            _clustered(200, 70 + seed), _clustered(9_000, 80 + seed), False
        )
    return tables


def _auto_records(out, complaints, raw) -> None:
    """The auto cases.  A scan's answer is held to the oracle (a top-k to
    the int8 set rule); ``path`` records whether the index answered."""
    from repro.embedding import HashingEmbedder
    from repro.engine import ExecutionEngine
    from repro.index import IVFFlatIndex
    from repro.query import Engine
    from repro.relational import Catalog, DataType, Field, Schema, Table

    def vec_table(key, vectors):
        schema = Schema.of(Field(key, DataType.INT64), Field("vec", DataType.TENSOR, dim=DIM))
        return Table.from_arrays(schema, {key: np.arange(len(vectors)), "vec": vectors})

    def make_engine(left, right, index):
        catalog = Catalog()
        catalog.register("l", vec_table("lid", left))
        catalog.register("r", vec_table("rid", right))
        engine = Engine(catalog)
        engine.models.register("m", HashingEmbedder(dim=DIM))
        engine.register_index("r", "vec", index)
        return engine

    def join(engine, strategy=None, **terms):
        query = engine.query("l").ejoin(
            "r", left_on="vec", right_on="vec", model="m", strategy=strategy, **terms,
        ).select(["lid", "rid", "similarity"])
        return query.execute(), query.last_report.join_stats[-1]

    def executor(mode):
        if mode == "budget":
            return ExecutionEngine(buffer_budget_bytes=BUDGET_BYTES * ExecutionEngine().n_threads)
        return ExecutionEngine(**MODES[mode])

    verdicts = {}
    for (lists, (nlist, nprobe)), (name, (left, right, _)) in itertools.product(
        AUTO_INDEXES.items(), _auto_tables().items()
    ):
        scores = unit(left) @ unit(right).T
        index = IVFFlatIndex(DIM, nlist=nlist, nprobe=nprobe, seed=0)
        index.add(right)
        warm = make_engine(left, right, index)
        join(warm, "parallel-tensor", top_k=K)  # caches the right side's caps
        for label, cond in _join_conditions(scores).items():
            for state, mode in itertools.product(("cold", "cached"), list(MODES)[1:]):
                case = f"auto/{lists}/{name}/{label}/{state}/{mode}"
                engine = warm if state == "cached" else make_engine(left, right, index)
                engine.executor = executor(mode)
                try:
                    got, stats = join(engine, **cond)
                except Exception as exc:
                    out[case] = {"ids": f"error:{type(exc).__name__}", "path": None}
                    continue
                left_ids, right_ids = (got.array(c).astype(np.int64) for c in ("lid", "rid"))
                found = got.array("similarity")
                if "threshold" in cond:  # the optimizer may swap the sides
                    order = np.lexsort((right_ids, left_ids))
                    left_ids, right_ids, found = left_ids[order], right_ids[order], found[order]
                path = "index" if stats.strategy.startswith("index") else "scan"
                # Scores hang on how the engine cut the work: compared
                # with the parent's (raw), not emitted.
                record = out[case] = {"ids": sha(left_ids, right_ids), "path": path}
                if raw:
                    record["scores"] = sha(found)
                    if len(found) <= 100_000:
                        record["bits"] = pack(found.astype(np.float32))
                # Modes mostly agree: each distinct answer is checked once.
                answer = (name, label, path, record["ids"], sha(found))
                if answer not in verdicts:
                    meets = None
                    if "top_k" in cond:
                        meets = meets_oracle(scores, cond, left_ids, right_ids, SWAP_TOLERANCE)
                    why = None
                    if path == "scan":  # an index is approximate: held to the parent only
                        why = _join_check(
                            scores, cond, False, TOLERANCE, left_ids, right_ids, found
                        ) or (meets is False and "ids / order differ from the oracle") or None
                    verdicts[answer] = meets, why
                meets, why = verdicts[answer]
                if meets is not None:
                    record["oracle"] = meets
                if why:
                    complaints.append(f"{case}: {why}")


def _join_near(parent: dict, change: dict) -> bool:
    """Whether two scan-join answers scored in differently shaped GEMMs
    agree up to fp32 rounding.  On the caps: each row holds the parent's
    ids, where the two differ position by position the pairs' float64
    scores are within ``SWAP_TOLERANCE`` (a threshold's extra or missing
    pairs within it of the threshold), and a pair's score is within it of
    the parent's.  An auto join that left the index: the same ids, scores
    within ``SWAP_TOLERANCE``.  Any other GEMM-emitted scores: the same
    ids, scores within ``ULP``."""
    if change.get("caps"):
        if "pairs" not in parent or "pairs" not in change:
            return change["ids"] == parent["ids"]
        (pl, pr), (cl, cr) = ([unpack(ids, np.int64) for ids in side["pairs"]] for side in (parent, change))
        pt, ct = (unpack(side["truth"], np.float64) for side in (parent, change))
        width = int(max(pr.max(initial=0), cr.max(initial=0))) + 1
        pk, ck = pl * width + pr, cl * width + cr
        if change["floor"] is not None:
            odd = np.concatenate([pt[~np.isin(pk, ck)], ct[~np.isin(ck, pk)]])
            if (np.abs(odd - change["floor"]) > SWAP_TOLERANCE).any():
                return False
        elif not np.array_equal(pl, cl) or (
            np.abs(pt[pr != cr] - ct[pr != cr]) > SWAP_TOLERANCE
        ).any():
            return False
        _, at_parent, at_change = np.intersect1d(pk, ck, return_indices=True)
        pb, cb = (unpack(side["bits"], np.float32) for side in (parent, change))
        return apart(pb[at_parent], cb[at_change]) <= SWAP_TOLERANCE
    if change["ids"] != parent["ids"] or "bits" not in change or "bits" not in parent:
        return False
    if "path" in change and change["path"] == parent.get("path"):
        return False  # the same access path scores in the same GEMMs
    gap = apart(unpack(parent["bits"], np.float32), unpack(change["bits"], np.float32))
    return gap <= (SWAP_TOLERANCE if "path" in change else ULP)


# -- ejoin_keys --------------------------------------------------------------
def _words(rng, n):
    letters = list("abcdefghijklmnop")
    out: set[str] = set()
    while len(out) < n:
        out.add("".join(rng.choice(letters, size=int(rng.integers(4, 9)))))
    return sorted(out)


@small_tasks()
def ejoin_keys(raw: bool):
    """``<condition>/<path>/op<nn>`` -> ``{"ids", "oracle"}`` (``oracle``:
    a cold engine gave the same ids); ``raw`` adds the warm scores."""
    from repro.embedding import HashingEmbedder
    from repro.index import FlatIndex, IVFFlatIndex
    from repro.obs.capture import result_digest
    from repro.query import Engine
    from repro.relational import Catalog, Col, DataType, Field, Schema, Table

    rng = np.random.default_rng(2500)
    words = _words(rng, 64)
    catalog_words = words + words[:8]  # eight rows twice: exact ties
    pool = words[:12] + [w[:-1] + "x" for w in words[12:24]] + _words(rng, 16)
    zipf = 1.0 / np.arange(1, len(pool) + 1)
    zipf /= zipf.sum()
    feed_schema = Schema.of(
        Field("lid", DataType.INT64), Field("text", DataType.STRING),
        Field("emb", DataType.TENSOR, dim=DIM),
    )
    word_schema = Schema.of(Field("wid", DataType.INT64), Field("word", DataType.STRING))

    def word_table(names):
        return Table.from_arrays(word_schema, {"wid": np.arange(len(names)), "word": names})

    def feed_table(texts, seed):
        emb = np.random.default_rng(seed).standard_normal((len(texts), DIM))
        return Table.from_arrays(
            feed_schema,
            {"lid": np.arange(len(texts)), "text": texts, "emb": emb.astype(np.float32)},
        )

    def build_index(engine, right, path):
        index = FlatIndex(DIM)
        if path == "auto-index":  # approximate: a wrong pick shows
            index = IVFFlatIndex(DIM, nlist=max(1, right.num_rows // 8), nprobe=1, seed=0)
        index.add(engine.models.get("m1").embed_batch(right.array("word").tolist()))
        engine.register_index("words", "word", index)

    def answer(engine, path, cond, model):
        """The id digest (every column but the similarity) and the scores'."""
        right = "words"
        if path == "filtered":
            right = engine.query("words").where(Col("wid") < 68)
        join = {"left_on": "text", **KEY_PATHS[path], **cond}
        query = engine.query("feed").ejoin(right, right_on="word", model=model, **join)
        try:
            out = query.execute()
        except Exception as exc:
            return f"error:{type(exc).__name__}", None
        ids = out.select([n for n in out.schema.names if n != "similarity"])
        return result_digest(ids), sha(out.array("similarity"))

    out: dict[str, dict] = {}
    for label, cond in KEY_CONDITIONS.items():
        right_words = catalog_words[:3] + catalog_words[:1] if label == "k-past-n" else catalog_words
        for path in KEY_PATHS:
            case = f"{label}/{path}"
            seq = np.random.default_rng(zlib.crc32(case.encode()))
            models = {name: HashingEmbedder(dim=DIM, seed=5 + i) for i, name in enumerate(MODELS)}
            right = word_table(right_words)
            warm = Engine(Catalog())
            warm.catalog.register("words", right)
            for name, model in models.items():
                warm.models.register(name, model)
            if path in INDEXED:
                build_index(warm, right, path)
            for op in range(OPS):
                if op == REREGISTER_AT:
                    changed = list(right_words)
                    changed[1] = pool[-1]  # a stranger: some feed row's best match
                    right = word_table(changed)
                    warm.catalog.register("words", right, replace=True)
                    if path in INDEXED:
                        build_index(warm, right, path)
                if op == REPLACE_AT and path not in INDEXED:  # the index holds m1's vectors
                    models["m2"] = HashingEmbedder(dim=DIM, seed=11)
                    warm.models.register("m2", models["m2"], replace=True)
                if op == 0:
                    texts = []
                elif op == 1:
                    texts = [pool[int(seq.integers(len(pool)))]] * 5
                else:
                    texts = [pool[i] for i in seq.choice(len(pool), FEED_ROWS, p=zipf)]
                feed = feed_table(texts, seed=op)
                warm.catalog.register("feed", feed, replace=True)
                model = "m1" if path in INDEXED else MODELS[op % 2]
                cold = Engine(Catalog())
                cold.catalog.register("words", right)
                cold.catalog.register("feed", feed)
                for name, obj in models.items():
                    cold.models.register(name, obj)
                if path in INDEXED:
                    build_index(cold, right, path)
                ids, scores = answer(warm, path, cond, model)
                cold_ids, _ = answer(cold, path, cond, model)
                record = out[f"{case}/op{op:02d}"] = {"ids": ids, "oracle": ids == cold_ids}
                if raw:  # GEMM-emitted scores depend on how the work was cut
                    record["scores"] = scores
    return out, misses(out, "warm ids differ from a cold engine's")


# -- equi_join ---------------------------------------------------------------
def _nested_loop(left, right) -> list[tuple[int, int]]:
    """``(l_pos, r_pos)`` of an equi-join on ``k``: left-major, each left
    row's matches in ascending right position (``Table.equi_join``)."""
    right_rows = list(zip(right.array("k").tolist(), right.array("pos").tolist()))
    return [
        (l_pos, r_pos)
        for l_key, l_pos in zip(left.array("k").tolist(), left.array("pos").tolist())
        for r_key, r_pos in right_rows
        if l_key == r_key
    ]


def equi_joins(raw: bool):
    """``<nnn>`` -> ``{"ids", "oracle"}``: the output table's digest and,
    except where the join feeds an E-join, whether its ``(l_pos, r_pos)``
    sequence is a nested loop's."""
    from repro.embedding import HashingEmbedder
    from repro.obs.capture import result_digest
    from repro.query import Engine
    from repro.relational import Catalog, Col, DataType, Field, Schema, Table

    def table(rng, n, as_strings, domain):
        ints = rng.integers(0, domain, size=n)
        key = Field("k", DataType.STRING if as_strings else DataType.INT64)
        schema = Schema.of(
            key, Field("pos", DataType.INT64), Field("word", DataType.STRING),
            Field("vec", DataType.TENSOR, dim=4),
        )
        return Table.from_arrays(schema, {
            "k": [f"key-{v}" for v in ints] if as_strings else ints,
            "pos": np.arange(n, dtype=np.int64),
            "word": [f"w{v % 5}{'s' * (v % 3)}" for v in ints],
            "vec": rng.standard_normal((n, 4)).astype(np.float32),
        })

    out: dict[str, dict] = {}
    for case in range(EQUI_CASES):
        rng = np.random.default_rng(1000 + case)
        kind = case % 6
        n_left = 0 if kind == 1 else int(rng.integers(1, 60))
        n_right = 0 if kind == 2 else int(rng.integers(1, 60))
        domain = 200 if kind == 3 else int(rng.integers(1, 12))  # 3: few or no matches
        catalog = Catalog()
        catalog.register("l", table(rng, n_left, case % 2 == 1, domain))
        catalog.register("r", table(rng, n_right, case % 2 == 1, domain))
        catalog.register("words", table(rng, 30, False, 9))
        engine = Engine(catalog)
        engine.models.register("m", HashingEmbedder(dim=16, seed=5))
        query = engine.query("l")
        left, right = catalog.get("l"), catalog.get("r")  # the nested loop's inputs
        if kind == 4:
            query = query.where(Col("pos") >= 3)
            query = query.join(engine.query("r").where(Col("pos") < 40), left_on="k", right_on="k")
            left = left.mask(left.array("pos") >= 3)
            right = right.mask(right.array("pos") < 40)
        else:
            query = query.join("r", left_on="k", right_on="k")
        if kind == 5:  # the join's output feeds an E-join on a prefixed column
            query = query.ejoin(
                "words", left_on="l_word", right_on="word", model="m", top_k=2
            )
        got = query.execute()
        record = out[f"{case:03d}"] = {"ids": result_digest(got)}
        if kind != 5:
            pairs = list(zip(got.array("l_pos").tolist(), got.array("r_pos").tolist()))
            record["oracle"] = pairs == _nested_loop(left, right)
    return out, misses(out, "not a nested loop's pairs")


# -- one runner, one rule ----------------------------------------------------

FAMILIES = {
    "select": selections, "scan_join": scan_joins, "ejoin_keys": ejoin_keys, "equi_join": equi_joins,
}
#: A family's check for answers scored in differently shaped GEMMs.
NEAR = {"scan_join": _join_near}
KINDS = ("equal", "fixed", "near", "differences", "removed", "new")


def records(raw: bool = False) -> tuple[dict[str, dict], list[str]]:
    """Every family's records under ``<family>/``, and their complaints."""
    out, complaints = {}, []
    for family, make in FAMILIES.items():
        got, why = make(raw)
        out.update((f"{family}/{case}", record) for case, record in got.items())
        complaints += [f"{family}/{line}" for line in why]
    return out, complaints


def compare(parent: dict, change: dict) -> dict[str, list[str]]:
    """Each case under one rule: ``equal`` ids and scores; ``fixed``, the
    parent's oracle False and the change's True; ``near``, its family's
    check; ``removed`` / ``new``, on one side only; else ``differences``."""
    report = {kind: [] for kind in KINDS}
    report["removed"] = sorted(parent.keys() - change.keys())
    report["new"] = sorted(change.keys() - parent.keys())
    for case in sorted(parent.keys() & change.keys()):
        was, now = parent[case], change[case]
        if (was["ids"], was.get("scores")) == (now["ids"], now.get("scores")):
            kind = "equal"
        elif was.get("oracle") is False and now.get("oracle") is True:
            kind = "fixed"
        else:
            near = NEAR.get(case.split("/", 1)[0], lambda was, now: False)
            kind = "near" if near(was, now) else "differences"
        report[kind].append(case)
    return report


def run(root: Path) -> tuple[dict[str, dict], list[str]]:
    """``root``'s raw records and complaints: its own copy of this file on
    its own ``src/`` (this file where it has none), so each side runs the
    cases written against its API and a deleted case shows as removed."""
    script = root / "tools" / "differential.py"
    if not script.is_file():
        script = Path(__file__)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        emitted = Path(tmp) / "records.json"
        done = subprocess.run(
            [sys.executable, str(script), "--emit", str(emitted), "--raw"],
            env=env, stderr=subprocess.PIPE, text=True,
        )
        if done.returncode not in (0, 1):
            sys.exit(f"{root}: the emit failed\n{done.stderr}")
        complaints = [line for line in done.stderr.splitlines() if line.startswith("complaint:")]
        return json.loads(emitted.read_text()), complaints


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--emit", type=Path, help="write this checkout's records here")
    parser.add_argument("--raw", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit is not None:
        out, complaints = records(args.raw)
        args.emit.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
        for line in complaints:
            print("complaint:", line, file=sys.stderr)
        return 1 if complaints else 0
    if args.parent is None:
        parser.error("--parent DIR or --emit FILE is required")
    (parent, parent_complaints), (change, complaints) = run(args.parent.resolve()), run(ROOT)
    report = compare(parent, change)
    for family in FAMILIES:
        counts = (f"{sum(c.startswith(family + '/') for c in report[kind])} {kind}" for kind in KINDS)
        print(f"{family}: " + ", ".join(counts))
    for kind in KINDS[1:]:
        for case in report[kind][:20]:
            print(f"  {kind}: {case}")
    print(f"complaints: parent {len(parent_complaints)}, change {len(complaints)}")
    for line in complaints[:20]:
        print(" ", line)
    return 1 if report["differences"] or complaints else 0


if __name__ == "__main__":
    sys.exit(main())
