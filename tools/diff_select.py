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
2-shard service, the degraded int8 and PQ paths}.  A NaN row or query is a
case of its own kind: those are reported apart (PR 23 rejects them; the
parent answered wrongly or not at all).  An exception digests as its type
name.  Exit status 1 on any difference outside the non-finite cases.
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


def digests() -> dict[str, str]:
    import numpy as np

    sys.path.insert(0, str(ROOT / "tests"))
    from conftest import _HeldSlots  # the deterministic group former

    from repro.core import ThresholdCondition, TopKCondition, eselect
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

    def outcome(call, digest=result_digest):
        try:
            return digest(call())
        except Exception as exc:
            return f"error:{type(exc).__name__}"

    def selection_digest(result):
        return hashlib.sha256(result.ids.tobytes() + result.scores.tobytes()).hexdigest()

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
    pressed = QueryService(engine, result_cache_size=0)
    for _ in range(pressed.qos_tracker.min_samples):
        pressed.qos_tracker.observe("full", 10.0)  # any deadline degrades

    def build(name, query, cond):
        return engine.query(name).esimilar("emb", query, model="m", **cond)

    def blocker(name):
        def make(i):
            vector = np.random.default_rng(20_000 + i).standard_normal(DIM)
            return build(name, vector.astype(np.float32), {"top_k": 1})
        return make

    def degraded(name, query, cond, floor):
        response = pressed.submit_qos(
            build(name, query, cond), deadline_s=5.0, min_recall=floor
        )
        assert response.degraded
        return response.table

    out: dict[str, str] = {}
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
                out[f"{case}/eselect"] = outcome(
                    lambda: eselect(rows, query, condition(cond)), selection_digest
                )
                out[f"{case}/execute"] = outcome(build(name, query, cond).execute)
                for floor, codec in ((0.97, "int8"), (0.9, "pq")):
                    out[f"{case}/degraded-{codec}"] = outcome(
                        lambda: degraded(name, query, cond, floor)
                    )
                if query is bad or not grouped:
                    # Never queued behind held slots: the change declines
                    # to coalesce a NaN query and fails a NaN table's scan.
                    for label, service in (("coalesced", coalesced), ("sharded", sharded)):
                        out[f"{case}/{label}1"] = outcome(
                            lambda: service.submit(build(name, query, cond))
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
                    for (case, _, _), result in zip(members, got):
                        out[f"{case}/{label}{len(members)}"] = (
                            f"error:{type(result).__name__}"
                            if isinstance(result, BaseException)
                            else result_digest(result)
                        )
                start, size = start + size, size % 8 + 1
        assert coalesced.stats_snapshot()["coalescer"]["fallbacks"] > 0  # ties rescanned
        assert sharded.stats_snapshot()["coalescer"]["sharded_groups"] > 0
    finally:
        for service in (coalesced, sharded, pressed):
            service.shutdown()
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--emit", type=Path, help="write this checkout's digests here")
    args = parser.parse_args()
    if args.emit is not None:
        args.emit.write_text(json.dumps(digests(), indent=0, sort_keys=True) + "\n")
        return 0
    if args.parent is None:
        parser.error("--parent DIR or --emit FILE is required")
    sides = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name, root in (("parent", args.parent.resolve()), ("change", ROOT)):
            env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
            emitted = Path(scratch) / f"{name}.json"
            subprocess.run(
                [sys.executable, __file__, "--emit", str(emitted)], env=env, check=True
            )
            sides[name] = json.loads(emitted.read_text())
    assert sides["parent"].keys() == sides["change"].keys()
    apart = sorted(case for case in sides["change"] if case.startswith("nonfinite"))
    differing = sorted(
        case
        for case, digest in sides["change"].items()
        if digest != sides["parent"][case] and case not in apart
    )
    print(
        f"{len(sides['change']) - len(apart)} cases, "
        f"{len(differing)} differences {differing[:10]}"
    )
    print(f"{len(apart)} non-finite cases (parent -> change):")
    for case in apart:
        print(f"  {case}: {sides['parent'][case][:16]} -> {sides['change'][case][:16]}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
