"""Shared-memory column stores: publish once, map zero-copy everywhere.

The pool owner copies a column's scan-ready representation — the
unit-normalized fp32 matrix — into one ``multiprocessing.shared_memory``
segment per array.  Workers
map the segments and wrap them as read-only numpy views: after the one
publish copy, fanning a scan out to N processes moves no column data at
all, only task envelopes.  That is what lets process parallelism beat
threads: each worker's GEMM runs in its own interpreter on memory the
kernel shares physically.

Ownership is strictly one-sided.  The creating process (the pool) is the
only one that ever ``unlink``s; workers ``close`` their maps and never
destroy.  On POSIX Pythons < 3.13 *attaching* also registers the segment
with the (spawn-shared) ``resource_tracker``; that is harmless here —
the tracker's cache is a set, the owner's explicit ``unlink`` clears the
entry, and anything left behind by a crashed owner is unlinked by the
tracker at exit, which is exactly the backstop we want for leaked
segments.
"""

from __future__ import annotations

import os
import itertools
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..errors import ShardError

#: Every segment this process creates starts with this prefix + pid, so
#: leak checks can assert "no segments of ours survive" by name.
SEGMENT_PREFIX = "reproshard"

_seq = itertools.count()
_owner_seq = itertools.count()


def segment_prefix(pid: int | None = None) -> str:
    """Leak-checkable name prefix for segments owned by ``pid``."""
    return f"{SEGMENT_PREFIX}{os.getpid() if pid is None else pid}_"


@dataclass(frozen=True)
class SegmentSpec:
    """Everything a worker needs to map one published array: pure data,
    pickles through the task envelope untouched."""

    name: str
    dtype: str
    shape: tuple[int, ...]

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape)))


class AttachedSegment:
    """A worker-side zero-copy view over a published segment."""

    def __init__(self, spec: SegmentSpec) -> None:
        try:
            self._shm = shared_memory.SharedMemory(name=spec.name)
        except FileNotFoundError as exc:
            raise ShardError(
                f"shard segment {spec.name!r} has been unlinked"
            ) from exc
        if self._shm.size < spec.nbytes:
            self._shm.close()
            raise ShardError(
                f"shard segment {spec.name!r} holds {self._shm.size} bytes, "
                f"spec needs {spec.nbytes}"
            )
        self.spec = spec
        self.array = np.ndarray(
            spec.shape, dtype=np.dtype(spec.dtype), buffer=self._shm.buf
        )
        self.array.flags.writeable = False

    def close(self) -> None:
        """Drop the map (never unlinks — that is the owner's job)."""
        # The numpy view pins the segment's exported buffer; release it
        # first or ``close`` raises BufferError.
        self.array = None
        self._shm.close()


class SegmentOwner:
    """Owner side: creates, hands out specs, and is the only unlinker."""

    def __init__(self) -> None:
        # Per-owner suffix on top of the per-process prefix: several
        # pools can coexist in one process, and "no segments of *this*
        # owner survive" must not see a sibling's live segments.
        self.prefix = f"{segment_prefix()}{next(_owner_seq)}_"
        self._segments: dict[str, shared_memory.SharedMemory] = {}

    def publish(self, array: np.ndarray) -> SegmentSpec:
        """Copy ``array`` into a fresh segment and return its spec."""
        array = np.ascontiguousarray(array)
        name = f"{self.prefix}{next(_seq)}"
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=max(int(array.nbytes), 1)
        )
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        view[...] = array
        del view
        self._segments[name] = shm
        return SegmentSpec(
            name=name, dtype=str(array.dtype), shape=tuple(array.shape)
        )

    def unlink(self, name: str) -> None:
        """Destroy one segment (idempotent)."""
        shm = self._segments.pop(name, None)
        if shm is None:
            return
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # already gone (e.g. external cleanup)
            pass

    def segment_names(self) -> list[str]:
        return sorted(self._segments)

    def close(self) -> None:
        """Destroy every segment this owner created (idempotent)."""
        for name in list(self._segments):
            self.unlink(name)


def leaked_segments(prefix: str) -> list[str]:
    """Names of live segments under ``prefix`` (empty = no leaks).

    POSIX shared memory appears as files under ``/dev/shm``; on platforms
    without it this returns ``[]``, which keeps leak assertions vacuously
    true rather than flaky.
    """
    root = "/dev/shm"
    if not os.path.isdir(root):
        return []
    return sorted(n for n in os.listdir(root) if n.startswith(prefix))
