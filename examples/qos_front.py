"""Asyncio QoS serving: deadlines, priorities, shedding.

Many coroutine clients share one engine through ``AsyncQueryService``:
idle connections cost a heap entry each (not a thread), a bounded
dispatcher pool drains them in priority order, and each query carries a
deadline.  Under pressure the service sheds provably-unmeetable queries
with ``DeadlineExceededError``; everything else comes back bit-identical
to serial execution — in time (``ok``) or late (``late``).
"""

from __future__ import annotations

import asyncio

import numpy as np

import repro
from repro.errors import DeadlineExceededError
from repro.relational.column import Column
from repro.service import AsyncQueryService
from repro.workloads import unit_vectors

N_ROWS, DIM = 20_000, 64
N_CLIENTS, QUERIES_PER_CLIENT = 32, 4


def build_engine() -> repro.Engine:
    vectors = unit_vectors(N_ROWS, DIM, stream="qos_example/corpus")
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


async def client(engine, front, worker: int, outcomes: dict) -> None:
    queries = unit_vectors(QUERIES_PER_CLIENT, DIM, stream=f"qos_example/{worker}")
    for qvec in queries:
        query = (
            engine.query("docs")
            .esimilar("emb", qvec, model="encoder", top_k=5)
            .select(["doc_id", "similarity"])
        )
        try:
            response = await front.submit(
                query,
                deadline_s=0.25,
                priority=worker % 3,  # a few service classes
            )
        except DeadlineExceededError:
            outcomes["shed"] += 1
            continue
        if response.deadline_met:
            outcomes["ok"] += 1
        else:
            outcomes["late"] += 1


async def serve() -> dict:
    engine = build_engine()
    # Few execution slots relative to the client count: the front's
    # queue, not a thread per connection, absorbs the difference.
    service = engine.serve(max_inflight=4)
    outcomes = {"ok": 0, "late": 0, "shed": 0}
    async with AsyncQueryService(service, workers=4) as front:
        await asyncio.gather(
            *(client(engine, front, w, outcomes) for w in range(N_CLIENTS))
        )
        print(f"front stats: {front.stats.snapshot()}")
    # The async front is drained; now drain the service itself.
    service.shutdown(drain=True, timeout_s=30.0)
    return outcomes


def main() -> None:
    outcomes = asyncio.run(serve())
    total = sum(outcomes.values())
    print(f"{N_CLIENTS} coroutine clients, {total} queries: {outcomes}")
    assert total == N_CLIENTS * QUERIES_PER_CLIENT


if __name__ == "__main__":
    main()
