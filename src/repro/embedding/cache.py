"""Embedding store: prefetch cache and lookup-table decoder (``E^-1``).

Two pieces of Section III-C / IV-A live here:

* the **prefetch optimization**: embedding each tuple once and reusing the
  tensor across all pairwise comparisons — :class:`EmbeddingStore` is the
  materialised "embed once" side-structure;
* the **lookup-table decode**: when a model has no decoder, the paper
  prescribes an object↔embedding mapping via unique IDs; the store keeps the
  originals and supports exact (by id) and nearest-neighbour decode.
"""

from __future__ import annotations

import threading
from itertools import count, repeat

import numpy as np

from ..errors import EmbeddingError
from .base import EmbeddingModel


class EmbeddingStore:
    """Materialised item → embedding mapping for one model.

    Thread-safe: concurrent clients of the query service share one store
    per model, so the get-or-embed path is serialized by an internal lock —
    two threads racing on the same new items embed them exactly once, and
    readers never observe a half-updated ``items``/``vectors`` pair.
    """

    def __init__(self, model: EmbeddingModel) -> None:
        self.model = model
        self._items: list = []
        self._key_to_id: dict = {}
        # Append-only buffer, grown geometrically: rows below ``len(self)``
        # are never rewritten, so a ``vectors`` view a reader holds stays
        # valid (and complete for the ids it was handed) while later
        # appends land behind it or in a bigger buffer.
        self._buffer = np.empty((0, model.dim), dtype=np.float32)
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def vectors(self) -> np.ndarray:
        """The ``(n, dim)`` embedding matrix (no copy)."""
        with self._lock:
            return self._buffer[: len(self._items)]

    def add_items(self, items: list) -> np.ndarray:
        """Codes of ``items`` — their row ids in :attr:`vectors` — embedding
        and storing the ones not seen before.

        Items already present are *not* re-embedded (each unique item incurs
        model cost M exactly once — the linear model-cost bound of the
        prefetch formulation).  Equal items get equal codes, so a consumer
        can work on ``np.unique(codes)`` and pay its own per-item cost once
        per distinct item too.
        """
        with self._lock:
            codes = np.fromiter(
                map(self._key_to_id.get, items, repeat(-1)),
                dtype=np.int64,
                count=len(items),
            )
            missing = np.flatnonzero(codes < 0)
            if len(missing):
                # De-duplicate while preserving order.
                uniques = list(dict.fromkeys(items[i] for i in missing))
                vectors = self.model.embed_batch(uniques)
                base = len(self._items)
                self._append(vectors)
                self._key_to_id.update(zip(uniques, count(base)))
                self._items.extend(uniques)
                codes[missing] = [self._key_to_id[items[i]] for i in missing]
            return codes

    def _append(self, vectors: np.ndarray) -> None:
        size = len(self._items)
        needed = size + len(vectors)
        if needed > len(self._buffer):
            grown = np.empty(
                (max(needed, 2 * len(self._buffer), 1024), self.model.dim),
                dtype=np.float32,
            )
            grown[:size] = self._buffer[:size]
            self._buffer = grown
        self._buffer[size:needed] = vectors

    def embed_items(self, items: list) -> np.ndarray:
        """Embeddings for ``items`` (adding any that are missing)."""
        with self._lock:
            codes = self.add_items(items)
            return self.vectors[codes]

    def id_of(self, item) -> int:
        with self._lock:
            if item not in self._key_to_id:
                raise EmbeddingError(f"item {item!r} is not in the store")
            return self._key_to_id[item]

    def decode_id(self, item_id: int):
        """Exact decode: unique id → original item (Section III-C)."""
        with self._lock:
            if not 0 <= item_id < len(self._items):
                raise EmbeddingError(
                    f"id {item_id} out of range [0, {len(self._items)})"
                )
            return self._items[item_id]

    def decode_vector(self, vector: np.ndarray):
        """Nearest-neighbour decode: vector → closest stored item."""
        with self._lock:
            if len(self._items) == 0:
                raise EmbeddingError("cannot decode against an empty store")
            vector = np.asarray(vector, dtype=np.float32)
            sims = self.vectors @ vector
            return self._items[int(np.argmax(sims))]

    def items(self) -> list:
        with self._lock:
            return list(self._items)


def shared_store(
    stores: dict[str, EmbeddingStore], name: str, model: EmbeddingModel, lock
) -> EmbeddingStore:
    """``stores[name]``, the embed-once store of the model registered as
    ``name`` — made anew when ``model``, the one registered now, is not the
    one it embeds with, so a replaced model's vectors and codes never
    answer for its successor.  ``lock`` guards ``stores``."""
    with lock:
        store = stores.get(name)
        if store is None or store.model is not model:
            store = stores[name] = EmbeddingStore(model)
        return store
