"""Sharded query service: the coalesced scan fanned out past the GIL.

Demonstrates `shard_procs`: the service publishes the scan-ready column
representations into shared memory once, keeps a pool of persistent
worker processes (one contiguous row range each), and fans every
fan-out-worthy coalesced scan across them.  Workers return bounded
candidate heaps; the front door merges them under a total order and
exact-rescores the merged superset, so sharded results stay
bit-identical to one-at-a-time serial execution on the bare engine.
At the end the service shuts down gracefully and the example asserts
that every shared-memory segment the pool published has been unlinked.
"""

from __future__ import annotations

import json
import threading

import numpy as np

import repro
from repro.relational.column import Column
from repro.shard import leaked_segments
from repro.workloads import unit_vectors

# Large enough that the cost model fans single-query scans across two
# worker processes under the production row floor — no knobs pinned.
N_ROWS, DIM = 20_000, 64
N_CLIENTS, QUERIES_PER_CLIENT = 8, 6
SHARD_PROCS = 2


def build_engine() -> repro.Engine:
    vectors = unit_vectors(N_ROWS, DIM, stream="example/corpus")
    table = repro.Table.from_columns(
        [
            Column(repro.Field("doc_id", repro.DataType.INT64), np.arange(N_ROWS)),
            Column(repro.Field("emb", repro.DataType.TENSOR, dim=DIM), vectors),
        ]
    )
    catalog = repro.Catalog()
    catalog.register("docs", table)
    engine = repro.Engine(catalog)
    engine.models.register("encoder", repro.HashingEmbedder(dim=DIM))
    return engine


def main() -> None:
    engine = build_engine()
    # shard_procs is all it takes (0, the default, builds no pool).
    service = engine.serve(max_inflight=16, coalesce=True, shard_procs=SHARD_PROCS)
    segment_prefix = service.shard_pool.segment_prefix

    hot = unit_vectors(4, DIM, stream="example/hot")

    def client(worker: int, results: list) -> None:
        # One deterministic stream per worker: numpy Generators are not
        # thread-safe, so threads must not share one.
        rng = repro.rng(f"example/traffic/{worker}")
        with service.session(f"user-{worker}") as session:
            for _ in range(QUERIES_PER_CLIENT):
                qvec = hot[int(rng.integers(len(hot)))]
                out = session.execute(
                    session.query("docs")
                    .esimilar("emb", qvec, model="encoder", top_k=5)
                    .select(["doc_id", "similarity"])
                )
                results.append(out)

    results: list = []
    threads = [
        threading.Thread(target=client, args=(w, results)) for w in range(N_CLIENTS)
    ]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        print(f"served {len(results)} queries from {N_CLIENTS} concurrent clients")
        snap = service.stats_snapshot()
        print("\nshard pool counters:")
        print(json.dumps(snap["shard"], indent=2))
        assert snap["shard"]["scans"] >= 1, "no scan fanned out to the workers"

        health = service.health().as_dict()
        print("\nworker health:")
        print(json.dumps(health["shard"], indent=2))
        assert health["shard"]["alive"] == SHARD_PROCS

        # The service contract survives sharding: identical to serial.
        serial = (
            engine.query("docs")
            .esimilar("emb", hot[0], model="encoder", top_k=5)
            .select(["doc_id", "similarity"])
            .execute()
        )
        via_service = service.submit(
            engine.query("docs")
            .esimilar("emb", hot[0], model="encoder", top_k=5)
            .select(["doc_id", "similarity"])
        )
        assert np.array_equal(serial.array("doc_id"), via_service.array("doc_id"))
        assert np.array_equal(
            serial.array("similarity"), via_service.array("similarity")
        )
        print("\nsharded results are bit-identical to serial execution ✓")
    finally:
        # Graceful shutdown closes the pool, which unlinks every published
        # segment; the spawn-shared resource_tracker is only the backstop
        # for crashed owners, so a clean exit must leave nothing behind.
        drained = service.shutdown(drain=True, timeout_s=30.0)
        print(f"service shut down (drained={drained})")
        leaked = leaked_segments(segment_prefix)
        assert leaked == [], f"leaked shared-memory segments: {leaked}"
        print("no shared-memory segments leaked ✓")


# spawn-safe: shard workers re-import this module, so nothing above may
# run at import time in a child process.
if __name__ == "__main__":
    main()
