"""Exception hierarchy for the repro engine.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without swallowing unrelated exceptions.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A schema is malformed or an operation references a missing column."""


class TypeMismatchError(SchemaError):
    """A value or column has an incompatible data type for the operation."""


class ExpressionError(ReproError):
    """An expression tree is malformed or cannot be evaluated."""


class PlanError(ReproError):
    """A logical or physical query plan is invalid."""


class OptimizerError(PlanError):
    """The optimizer could not produce a valid rewritten plan."""


class EmbeddingError(ReproError):
    """An embedding model failed to encode or decode data."""


class ModelNotFittedError(EmbeddingError):
    """A trainable embedding model was used before being trained."""


class VocabularyError(EmbeddingError):
    """A token cannot be resolved by the model and no fallback exists."""


class IndexError_(ReproError):
    """A vector index is misconfigured or used before being built.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`.
    """


class IndexNotBuiltError(IndexError_):
    """Probe was attempted on an index with no inserted vectors."""


class JoinError(ReproError):
    """An E-join operator received invalid inputs or configuration."""


class DimensionalityError(JoinError):
    """Vector operands have mismatched dimensionality."""


class BufferBudgetError(JoinError):
    """A tensor-join buffer budget is too small for any valid mini-batch."""


class WorkloadError(ReproError):
    """A synthetic workload generator received invalid parameters."""


class TransientError(ReproError):
    """A failure that is expected to succeed on re-execution.

    The reliability layer's retry machinery only ever retries exceptions
    deriving from this class — anything else is treated as permanent and
    propagates immediately.  Morsels are pure functions over row ranges,
    so re-executing one after a transient failure is bit-safe.
    """


class PermanentError(ReproError):
    """A failure that will not be fixed by retrying.

    Retry policies re-raise these immediately; circuit breakers count
    them toward tripping an access path out of planning.
    """


class TransientFault(TransientError):
    """A deterministic, injected transient fault (chaos testing)."""


class PermanentFault(PermanentError):
    """A deterministic, injected permanent fault (chaos testing)."""


class WorkerKilledFault(ReproError):
    """An injected abrupt engine-worker death (chaos testing).

    Deliberately *not* transient: the worker thread that draws this
    fault exits without completing or releasing its claimed morsel, so
    recovery is the watchdog's job (re-enqueue + respawn), never the
    retry wrapper's.
    """


class ServiceError(ReproError):
    """The concurrent query service was misused or failed internally."""


class ServiceOverloadError(ServiceError):
    """Admission control rejected a query: no execution slot freed up
    within the submission's backpressure timeout."""


class SessionClosedError(ServiceError):
    """A query was submitted through a closed session handle."""


class DeadlineExceededError(ServiceError):
    """A query's deadline expired, or was provably unmeetable, before a
    result could be produced.

    Raised by the QoS layer in three places: at submission when the
    deadline has already passed, while queued (for admission or in the
    async front's priority queue) when the deadline passes before an
    execution slot frees up, and at dispatch when the execution-time
    estimate proves the deadline cannot be met even by the degraded
    (int8 code scan) path."""


class ShardError(ServiceError):
    """The shard-process pool failed past its respawn budget.

    Raised when a coalesced scan cannot complete on the worker pool —
    every raise site has already exhausted watchdog respawns.  The
    coalescer treats it as a signal to fall back to the in-process scan,
    which is exact, so queries survive a wedged pool at reduced
    throughput rather than failing.
    """
