"""repro — reproduction of "Optimizing Context-Enhanced Relational Joins".

A hybrid vector-relational engine in pure Python/NumPy:

* :mod:`repro.relational` — columnar relational substrate,
* :mod:`repro.embedding` — embedding models (``E_mu``), training, caching,
* :mod:`repro.vector` — cosine kernels (scalar / vectorized / GEMM) and
  the int8 quantized representation,
* :mod:`repro.index` — flat, IVF and HNSW vector indexes,
* :mod:`repro.core` — the paper's contribution: E-join operators, tensor
  formulation, quantized access paths, cost model, access-path
  selection,
* :mod:`repro.engine` — morsel-driven parallel executor: a fork-join on
  one persistent thread pool per engine, over GIL-releasing kernels,
* :mod:`repro.algebra` — extended relational algebra and optimizer,
* :mod:`repro.query` — declarative query builder,
* :mod:`repro.service` — concurrent query service: admission control,
  cross-query shared-scan batching, an exact-key result cache, and
  a QoS layer (deadlines, priorities, shedding of unmeetable work, an
  asyncio submission front),
* :mod:`repro.obs` — unified observability: per-service metrics, per-query
  span tracing with a bounded ring, Prometheus/JSONL exporters, and
  ``EXPLAIN ANALYZE``,
* :mod:`repro.workloads` — seeded synthetic workload generators.

The paper's figures and tables are reproduced by ``benchmarks/`` (one
pytest file each), outside the library.

Quickstart::

    import repro
    result = repro.ejoin(left_vectors, right_vectors,
                         repro.ThresholdCondition(0.9))
"""

from .config import get_config, rng
from .core import (
    QuantizedRelation,
    ThresholdCondition,
    TopKCondition,
    ejoin,
    quantized_tensor_join,
    tensor_join,
)
from .embedding import EmbeddingModel, FastTextModel, HashingEmbedder
from .engine import ExecutionEngine
from .index import HNSWIndex
from .obs import Tracer, render_explain
from .query import Engine
from .relational import Catalog, Col, DataType, Field, Schema, Table
from .service import AsyncQueryService, QueryService

__version__ = "1.1.0"

__all__ = [
    "AsyncQueryService",
    "Catalog",
    "Col",
    "DataType",
    "EmbeddingModel",
    "Engine",
    "ExecutionEngine",
    "FastTextModel",
    "Field",
    "HNSWIndex",
    "HashingEmbedder",
    "QuantizedRelation",
    "QueryService",
    "Schema",
    "Table",
    "ThresholdCondition",
    "TopKCondition",
    "Tracer",
    "__version__",
    "ejoin",
    "get_config",
    "quantized_tensor_join",
    "render_explain",
    "rng",
    "tensor_join",
]
