"""Differential for E-selections: every way one is served, one digest each.

PR 23 moved what makes a served selection exact behind
``core.eselect.select_group``; this runs the same seeded selections through
every entry point and writes one ``repro.obs.capture.result_digest`` per
case, so two checkouts — or one checkout under two ``REPRO_THREADS`` — can
be compared byte for byte::

    git clone -q . /root/scratch/parent && git -C /root/scratch/parent checkout -q <rev>
    python tools/diff_select.py --parent /root/scratch/parent
    REPRO_THREADS=1 python tools/diff_select.py --emit one.json
    REPRO_THREADS=2 python tools/diff_select.py --emit two.json && cmp one.json two.json

Cases: {threshold, attained threshold, top-k, top-k + ``min_similarity``,
k >= n, a k-th place tied past the prescreen pad} x {random rows, 60-way
ties, duplicate rows straddling block edges, an empty and a one-row table}
x {``eselect``, ``QueryBuilder.execute``, coalesced groups of 1-8 behind
held scan slots (duplicate vectors carrying different conditions), a
2-shard service, ``quantized_eselect`` over int8 and PQ codes at default
settings}.  A NaN row or query is a case of its own
kind: those are reported apart (they are rejected; an older parent answered
wrongly or not at all).  An exception digests as its type name.

Every answer is also held to a float64 oracle (NumPy only): a top-k's ids
in order, a threshold's ascending and exact up to rows within 1e-6 of it.
``--emit`` exits 1 on any miss.  Against ``--parent`` each checkout emits
with its own copy of this script and the cases both sides emit are
compared; a case only the parent emits is listed as behaviour removed.  A digest may differ only on a quantized top-k the
parent missed and this checkout does not (the parent kept a multiple of k
candidates, no proof); those are counted apart.  Exit status 1 on any
other difference outside the non-finite cases.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import zlib
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIM, K, SEEDS = 16, 5, 3
#: One fp32 score block of the served scans: 256 rows for one query, 32
#: for a group of eight — every table below spans several blocks.
BUDGET_BYTES = 1024


def _tables(np):
    """name -> (n, DIM) fp32 rows."""
    out = {"empty": np.zeros((0, DIM), np.float32)}
    rng = np.random.default_rng(77)
    out["one"] = rng.standard_normal((1, DIM)).astype(np.float32)
    for seed in range(SEEDS):
        rng = np.random.default_rng(100 + seed)
        out[f"plain{seed}"] = rng.standard_normal((600, DIM)).astype(np.float32)
        ties = rng.standard_normal((500, DIM)).astype(np.float32)
        ties[np.arange(0, 480, 8)] = ties[3]  # 60 copies: ties past the pad
        out[f"ties{seed}"] = ties
        dups = rng.standard_normal((700, DIM)).astype(np.float32)
        for edge in range(32, 700, 32):  # twins on both sides of a block edge
            dups[edge] = dups[edge - 1]
        out[f"dups{seed}"] = dups
    return out


def _cases(np, name, rows):
    """``(case id, query vector, esimilar keywords)`` for one table."""
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    queries = [rng.standard_normal(DIM).astype(np.float32)]
    # A stored row as the query: its copies tie at the top exactly.
    queries.append(rows[3 % len(rows)].copy() if len(rows) else queries[0] + 1)
    for q, query in enumerate(queries):
        unit = query / max(float(np.linalg.norm(query)), 1e-12)
        scores = np.sort(_unit(np, rows) @ unit) if len(rows) else np.zeros(1)
        conditions = {
            "thr": {"threshold": 0.35},
            "thr-attained": {"threshold": min(1.0, float(scores[-min(7, len(scores))]))},
            "topk": {"top_k": K},
            "topk-min": {"top_k": 2 * K, "min_similarity": 0.3},
            "k-ge-n": {"top_k": len(rows) + 7},
            "topk-wide": {"top_k": 40},
        }
        for label, cond in conditions.items():
            yield f"{name}/q{q}/{label}", query, cond


def _unit(np, rows):
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return rows / np.where(norms == 0, 1, norms)


def _meets_oracle(np, rows, query, cond, ids) -> bool:
    """Whether ``ids`` answer ``cond`` over float64 ``rows`` and ``query``."""
    scores = _unit(np, rows.astype(np.float64)) @ _unit(np, query.astype(np.float64)[None, :])[0]
    ids = np.asarray(ids, dtype=np.int64)
    if "threshold" in cond:
        near = np.abs(scores - cond["threshold"]) <= 1e-6
        want = np.flatnonzero(scores >= cond["threshold"])
        odd = np.setxor1d(ids, want)
        return bool(np.all(np.diff(ids) > 0) and near[odd].all())
    order = np.lexsort((np.arange(len(scores)), -scores))[: cond["top_k"]]
    if cond.get("min_similarity") is not None:
        order = order[scores[order] >= cond["min_similarity"]]
    return bool(np.array_equal(ids, order))


def digests() -> dict[str, dict]:
    import numpy as np

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
        """``{"digest", "oracle"}`` of a result: a selection or a table."""
        if isinstance(result, BaseException):
            return {"digest": f"error:{type(result).__name__}", "oracle": None}
        if isinstance(result, Table):
            digest, ids = result_digest(result), result.array("id")
        else:
            digest = hashlib.sha256(result.ids.tobytes() + result.scores.tobytes()).hexdigest()
            ids = result.ids
        return {"digest": digest, "oracle": _meets_oracle(np, rows, query, cond, ids)}

    def outcome(call, rows, query, cond):
        try:
            return record(call(), rows, query, cond)
        except Exception as exc:
            return record(exc, rows, query, cond)

    stores: dict = {}

    def store(name, method):
        if (name, method) not in stores:
            stores[name, method] = QuantizedRelation.build(
                tables[name], method, m=4, ks=16, seed=3
            )
        return stores[name, method]

    def condition(cond):
        if "threshold" in cond:
            return ThresholdCondition(cond["threshold"])
        return TopKCondition(cond["top_k"], min_similarity=cond.get("min_similarity"))

    tables = _tables(np)
    poisoned = tables["plain0"].copy()
    poisoned[9] = np.nan
    tables["nonfinite-row"] = poisoned
    catalog = Catalog()
    for name, rows in tables.items():
        catalog.register(name, table(rows))
    engine = Engine(catalog)
    engine.models.register("m", HashingEmbedder(dim=DIM))
    # Thread count from REPRO_THREADS; near-free dispatch and no row floor
    # so the pool fans out even these tables.
    engine.executor = ExecutionEngine(buffer_budget_bytes=BUDGET_BYTES)
    engine.cost_params = replace(engine.cost_params, shard_dispatch=1e-9)
    common = dict(coalesce=True, result_cache_size=0, max_inflight=256)
    coalesced = QueryService(engine, **common)
    sharded = QueryService(engine, shard_procs=2, **common)
    sharded.shard_pool.min_rows = 1

    def build(name, query, cond):
        return engine.query(name).esimilar("emb", query, model="m", **cond)

    def blocker(name):
        def make(i):
            vector = np.random.default_rng(20_000 + i).standard_normal(DIM)
            return build(name, vector.astype(np.float32), {"top_k": 1})
        return make

    out: dict[str, dict] = {}
    bad = np.full(DIM, np.nan, np.float32)
    try:
        for name, rows in tables.items():
            cases = list(_cases(np, name, rows))
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
                out[f"{case}/execute"] = outcome(build(name, query, cond).execute, *terms)
                for method in ("int8", "pq"):
                    out[f"{case}/{method}"] = outcome(
                        lambda: quantized_eselect(store(name, method), query, condition(cond)),
                        *terms,
                    )
                if query is bad or not grouped:
                    # Never queued behind held slots: the change declines
                    # to coalesce a NaN query and fails a NaN table's scan.
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
        assert coalesced.stats_snapshot()["coalescer"]["fallbacks"] > 0  # ties rescanned
        assert sharded.stats_snapshot()["coalescer"]["sharded_groups"] > 0
    finally:
        for service in (coalesced, sharded):
            service.shutdown()
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--emit", type=Path, help="write this checkout's digests here")
    args = parser.parse_args()
    if args.emit is not None:
        out = digests()
        args.emit.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
        misses = _misses(out)
        for case in misses:
            print("oracle:", case, file=sys.stderr)
        return 1 if misses else 0
    if args.parent is None:
        parser.error("--parent DIR or --emit FILE is required")
    sides = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name, root in (("parent", args.parent.resolve()), ("change", ROOT)):
            env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
            emitted = Path(scratch) / f"{name}.json"
            # Exit status 1 is an oracle miss, counted below for each side.
            subprocess.run(
                [sys.executable, str(root / "tools" / "diff_select.py"), "--emit", str(emitted)],
                env=env,
                stderr=subprocess.DEVNULL,
            )
            sides[name] = json.loads(emitted.read_text())
    parent, change = sides["parent"], sides["change"]
    removed = sorted(parent.keys() - change.keys())
    apart = sorted(case for case in change if case.startswith("nonfinite"))
    differing = sorted(
        case
        for case, got in change.items()
        if case in parent and got["digest"] != parent[case]["digest"]
        and case not in apart
    )
    # Allowed only where the parent missed the oracle and this checkout
    # meets it: a quantized top-k the proof made exact.
    fixed = [
        case for case in differing
        if case.rsplit("/", 1)[1] in ("int8", "pq")
        and parent[case]["oracle"] is False and change[case]["oracle"] is True
    ]
    differing = [case for case in differing if case not in fixed]
    misses = _misses(change)
    print(
        f"{len(change) - len(apart)} cases, {len(differing)} differences "
        f"{differing[:10]}, {len(fixed)} quantized top-k the parent missed and "
        f"this checkout does not; oracle misses: parent {len(_misses(parent))}, "
        f"change {len(misses)} {misses[:10]}"
    )
    print(f"{len(removed)} parent-only cases (behaviour removed): {removed[:5]}")
    print(f"{len(apart)} non-finite cases (parent -> change):")
    for case in apart:
        print(
            f"  {case}: {parent[case]['digest'][:16]} -> {change[case]['digest'][:16]}"
        )
    return 1 if differing or misses else 0


def _misses(out: dict[str, dict]) -> list[str]:
    """Cases outside the non-finite kind whose answer is not the oracle's."""
    return sorted(
        case for case, got in out.items()
        if got["oracle"] is False and not case.startswith("nonfinite")
    )


if __name__ == "__main__":
    sys.exit(main())
