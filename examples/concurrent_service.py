"""Concurrent query service: many clients, one engine, shared scans.

Demonstrates the serving layer added on top of the declarative engine:
admission control bounds in-flight work, concurrently-submitted top-k
selections against the same column coalesce into one shared batched scan,
and repeated queries are answered from the semantic result cache — all
while every result stays bit-identical to serial execution.  At the end
the service is shut down gracefully: in-flight queries drain before the
service stops accepting work for good.
"""

from __future__ import annotations

import json
import threading

import numpy as np

import repro
from repro.relational.column import Column
from repro.workloads import unit_vectors

N_ROWS, DIM = 20_000, 64
N_CLIENTS, QUERIES_PER_CLIENT = 8, 6


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
    service = engine.serve(max_inflight=16, coalesce=True)

    # A hot pool of query vectors: concurrent clients often ask the same
    # question, which the coalescer dedups and the result cache absorbs.
    hot = unit_vectors(4, DIM, stream="example/hot")

    def client(worker: int, results: list) -> None:
        # One deterministic stream per worker: numpy Generators are not
        # thread-safe, so threads must not share one.
        rng = repro.rng(f"example/traffic/{worker}")
        for i in range(1, QUERIES_PER_CLIENT + 1):
            qvec = hot[int(rng.integers(len(hot)))]
            out = service.submit(
                engine.query("docs")
                .esimilar("emb", qvec, model="encoder", top_k=5)
                .select(["doc_id", "similarity"]),
                tag=f"user-{worker}/q{i}",
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
        print("first result:")
        print(results[0])
        print("\nservice counters:")
        print(json.dumps(service.stats_snapshot(), indent=2))

        # The service contract: identical to one-at-a-time serial execution.
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
        print("\nservice results are bit-identical to serial execution ✓")
    finally:
        # Graceful shutdown: stop accepting new work, then wait for every
        # in-flight query to release its execution slot before exiting.
        drained = service.shutdown(drain=True, timeout_s=30.0)
        print(f"service shut down (drained={drained})")


if __name__ == "__main__":
    main()
