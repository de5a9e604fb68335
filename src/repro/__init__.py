"""repro — reproduction of "Optimizing Context-Enhanced Relational Joins".

A hybrid vector-relational engine in pure Python/NumPy:

* :mod:`repro.relational` — columnar relational substrate,
* :mod:`repro.embedding` — embedding models (``E_mu``), training, caching,
* :mod:`repro.vector` — cosine kernels (scalar / vectorized / GEMM) and
  quantized representations (int8, product quantization),
* :mod:`repro.index` — flat, IVF, IVF-PQ, and HNSW vector indexes,
* :mod:`repro.core` — the paper's contribution: E-join operators, tensor
  formulation, quantized access paths, cost model, access-path and
  precision selection,
* :mod:`repro.engine` — morsel-driven parallel executor: work-stealing
  scheduling and adaptive, calibration-fed batch sizing,
* :mod:`repro.algebra` — extended relational algebra and optimizer,
* :mod:`repro.query` — declarative query builder,
* :mod:`repro.service` — concurrent query service: admission control,
  cross-query shared-scan batching, plan + semantic result caches, and
  a QoS layer (deadlines, priorities, degraded-precision serving, an
  asyncio submission front),
* :mod:`repro.obs` — unified observability: metrics registry, per-query
  span tracing with a bounded ring, Prometheus/JSONL exporters, and
  ``EXPLAIN ANALYZE``,
* :mod:`repro.workloads` — seeded synthetic workload generators,
* :mod:`repro.bench` — figure/table reproduction harness.

Quickstart::

    import repro
    result = repro.ejoin(left_vectors, right_vectors,
                         repro.ThresholdCondition(0.9))
"""

from .config import ReproConfig, configure, get_config, rng, set_seed
from .core import (
    JoinResult,
    QuantizedRelation,
    ThresholdCondition,
    TopKCondition,
    ejoin,
    join_with_precision,
    quantized_tensor_join,
    tensor_join,
)
from .embedding import EmbeddingModel, FastTextModel, HashingEmbedder
from .engine import ExecutionEngine
from .index import FlatIndex, HNSWIndex, IVFPQIndex
from .obs import MetricsRegistry, Trace, Tracer, render_explain
from .query import Engine
from .relational import Catalog, Col, DataType, Field, Schema, Table
from .service import (
    AsyncQueryService,
    QoSParams,
    QueryResponse,
    QueryService,
    SessionHandle,
)

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
    "FlatIndex",
    "HNSWIndex",
    "HashingEmbedder",
    "IVFPQIndex",
    "JoinResult",
    "MetricsRegistry",
    "QoSParams",
    "QuantizedRelation",
    "QueryResponse",
    "QueryService",
    "ReproConfig",
    "Schema",
    "SessionHandle",
    "Table",
    "ThresholdCondition",
    "TopKCondition",
    "Trace",
    "Tracer",
    "__version__",
    "configure",
    "ejoin",
    "get_config",
    "join_with_precision",
    "quantized_tensor_join",
    "render_explain",
    "rng",
    "set_seed",
    "tensor_join",
]
